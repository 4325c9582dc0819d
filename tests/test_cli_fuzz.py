"""Every CLI command, fuzzed in process on a small bundle tree.

argv is drawn from each command's own flags: valid, boundary, nan, inf,
negative, huge and non-numeric values, and paths to missing, empty, garbage
and valid files.  Property: `main` returns 0 or 1, or exits with status 2
and one error line on stderr; no other exception escapes.  A bad flag that
reconkit rejects is its one `reconkit <cmd>: error: --<flag>: ...` line;
argparse's own usage errors keep argparse's format (usage, then one error
line).  `--workers` is drawn only from {1, 2}, and sizes that set how much
work a run does (`--scenes`, `--width`, `--height`) are never huge.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconkit.cli import main
from reconkit.oracle.bundle import load_bundle
from reconkit.oracle.mock import ground_truth_heatmaps
from reconkit.oracle.raster import write_raster

def values(*good, bad):
    """(strategy of values a flag accepts, strategy of values it may reject)."""
    return st.sampled_from(good), bad


BAD_FLOATS = st.one_of(
    st.sampled_from(["-1", "-0.001", "nan", "inf", "-inf", "1e308", "1e400", "x", ""]),
    st.floats().map(repr),
)
BAD_INTS = st.sampled_from(["-1", "1.5", "nan", "x", "", "18446744073709551617", "-18446744073709551617"])
# "@name" values are paths, resolved per example
BAD_PATHS = st.sampled_from(["@missing", "@empty", "@garbage", "@dir"])
NOISE = {f"--noise-{name}": values("0", "0.001", "0.01", "0.5", bad=BAD_FLOATS)
         for name in ("depth", "coord", "trans", "rot", "scale", "heatmap-blur", "mask-flip")}
COMMON = {
    "--seed": values("0", "1", "18446744073709551617", bad=BAD_INTS),
    "--workers": values("1", "2", bad=st.sampled_from(["1", "2"])),  # more would start more processes
    "--config": values("@config", bad=BAD_PATHS),
    "--out": values("@out", bad=st.just("@under_file")),
}
THRESHOLDS = {flag: values("0.01", "0.03", "1", "1e308", bad=BAD_FLOATS)
              for flag in ("--threshold-rel", "--threshold-abs")}
VIEW = {"--view": values("0", "1", bad=st.sampled_from(["2", "-1", "18446744073709551617", "1.5", "x"]))}

# command -> (flags always given, flags each given or left out): flag -> values(...)
FLAGS = {
    "gen-scenes": ({}, {
        **COMMON,
        "--scenes": values("1", "2", bad=st.sampled_from(["0", "-1", "1.5", "nan", "x"])),
        "--views": values("1", "2", bad=st.sampled_from(["0", "3", "-1", "18446744073709551617", "x"])),
        # never huge: the size is the work a run does
        **{flag: values("1", "8", "24", bad=st.sampled_from(["0", "-1", "-18446744073709551617", "1.5", "x"]))
           for flag in ("--width", "--height")},
    }),
    **{command: ({"--bundles": values("@tree", bad=BAD_PATHS)}, {**COMMON, **NOISE, **THRESHOLDS})
       for command in ("eval-pointmap", "eval-pose")},
    "solve-pnp": ({"--bundle": values("@scene", bad=BAD_PATHS)}, {
        **COMMON, **VIEW,
        "--temperature": values("0.05", "1", "1e9", bad=BAD_FLOATS),
        "--heatmap": values("@heatmap", bad=BAD_PATHS),
        "--keypoints": values("@keypoints", "@identical", bad=BAD_PATHS),
    }),
    "compose-points": ({"--bundle": values("@scene", bad=BAD_PATHS)}, {
        **COMMON, **NOISE, **VIEW, "--threshold": values("0.3", "0.5", bad=BAD_FLOATS),
    }),
    "check-grads": ({}, {**COMMON, "--eps": values("1e-6", "1e-4", bad=BAD_FLOATS)}),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """The paths "@name" values stand for; "@out" and "@under_file" are made per example."""
    root = tmp_path_factory.mktemp("fuzz")
    tree = root / "tree"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-scenes", "--scenes", "2", "--seed", "1", "--width", "32", "--height", "24",
                     "--workers", "1", "--out", str(tree)]) == 0
    bundle = load_bundle(tree / "scene_00000")
    files = {"empty": b"", "garbage": b"\x00\xff{garbage", "config": b'{"seed": 2}',
             "keypoints": json.dumps(bundle.keypoints_2d[0].tolist()).encode(),
             "identical": json.dumps([[10, 10]] * len(bundle.keypoints_3d)).encode()}
    for name, content in files.items():
        (root / name).write_bytes(content)
    write_raster(root / "heatmap", ground_truth_heatmaps(bundle)[0])
    (root / "dir").mkdir()
    return {**{name: root / name for name in [*files, "heatmap", "dir", "missing"]},
            "tree": tree, "scene": tree / "scene_00000"}


@st.composite
def flags_for(draw, command):
    """[(flag, value), ...] for one command: accepted values, then up to two drawn to be bad."""
    required, optional = FLAGS[command]
    chosen = draw(st.fixed_dictionaries({flag: good for flag, (good, _) in required.items()},
                                        optional={flag: good for flag, (good, _) in optional.items()}))
    table = {**required, **optional}
    bad = st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=2, unique=True)
    for flag in draw(st.one_of(st.just([]), bad)):  # an all-accepted run half the time
        chosen[flag] = draw(table[flag][1])
    return list(chosen.items())


def run(command, flags, paths) -> tuple[int, str, bool]:
    """(exit status, stderr, whether argparse exited) of one in-process call."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").touch()
        where = {**paths, "out": Path(tmp) / "out", "under_file": Path(tmp) / "file" / "x"}
        # --flag=value, so that argparse takes a value such as "-inf" as the flag's
        argv = [command] + [f"{flag}={where[value[1:]] if value.startswith('@') else value}"
                            for flag, value in flags]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            # a sigma or step near the float range overflows, to inf and then nan: a warning
            # when the CLI runs, which this suite would otherwise raise
            warnings.filterwarnings("ignore", "(overflow|invalid value) encountered", RuntimeWarning)
            try:
                return main(argv), err.getvalue(), False
            except SystemExit as exc:
                return exc.code, err.getvalue(), True


def check(command, flags, paths):
    code, err, exited = run(command, flags, paths)
    lines = err.splitlines()
    if exited:  # argparse's usage error: its usage lines, then one error line
        assert code == 2 and lines and lines[-1].startswith(f"reconkit {command}: error: argument ")
        assert sum(": error: " in line for line in lines) == 1
    elif code == 2:
        assert len(lines) == 1 and lines[0].startswith(f"reconkit {command}: error: --"), err
    else:
        assert code in (0, 1)
        assert all(line.startswith("FAILED ") for line in lines), err
        assert (code == 1) == bool(lines), err


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_command_fails_cleanly(paths, command, data):
    check(command, data.draw(flags_for(command)), paths)
