"""CLI subcommands: determinism, provenance, error propagation."""

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from reconkit import cli, pipeline
from reconkit.cli import main
from reconkit.losses import NonDifferentiableError
from reconkit.oracle.bundle import generate_scene, load_bundle, random_scene_spec, save_bundle, validate_bundle
from reconkit.oracle.mock import NoiseModel, ground_truth_heatmaps
from reconkit.oracle.raster import read_raster, write_raster
from reconkit.pipeline import RunConfig
from reconkit.pnp import DegenerateConfigurationError, NonConvergenceError
from reconkit.transforms import RankDeficientError


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def bundle_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "tree"
    rc = main([
        "gen-scenes", "--scenes", "3", "--seed", "5",
        "--width", "96", "--height", "72", "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    return out


class TestGenScenes:
    def test_rerun_byte_identical(self, tmp_path):
        args = ["gen-scenes", "--scenes", "2", "--seed", "9", "--width", "64",
                "--height", "48", "--workers", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_worker_count_invariance(self, tmp_path):
        base = ["gen-scenes", "--scenes", "4", "--seed", "3", "--width", "64",
                "--height", "48"]
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "4", "--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_manifest_lists_paths_and_seeds(self, bundle_tree):
        manifest = json.loads((bundle_tree / "manifest.json").read_text())
        assert len(manifest["bundles"]) == 3
        for row in manifest["bundles"]:
            assert (bundle_tree / row["path"] / "meta.json").exists()
            assert isinstance(row["seed"], int)
        assert "workers" not in manifest["config"]

    def test_missing_out_is_flag_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["gen-scenes", "--scenes", "1", "--width", "32", "--height", "24", "--workers", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("reconkit gen-scenes: error: --out: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


def tree_sha256(root: Path) -> str:
    """One sha256 over every file of a tree: relative path, then bytes, in sorted path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


class TestGenScenesBytes:
    """Pinned sha256 of whole `gen-scenes` trees, at 1 and 2 workers."""

    SHA256 = {
        ("3", "160", "120"): "aa2f8811aa85de0f6740146338ccc45abdea0d340ca231348c50b11bf800dcae",
        ("1", "630", "476"): "c360e87f6a3b1ac595bdcb810093ac9a0e7191a196ac0eeceee57811e4ff68f6",
        ("2", "630", "476"): "5d028f1e3bbc50cf93f730c3103f9a9ac50c35b12e8e53d3558d87a83ec22d1f",  # seed 51
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "scenes,width,height,seed",
        [
            pytest.param("3", "160", "120", "13", id="3-160-120"),
            pytest.param("1", "630", "476", "13", id="1-630-476"),
            pytest.param("2", "630", "476", "51", id="2-630-476-seed51"),
        ],
    )
    def test_tree_sha256_pinned(self, tmp_path, scenes, width, height, seed, workers):
        out = tmp_path / "tree"
        rc = main(["gen-scenes", "--scenes", scenes, "--seed", seed, "--width", width,
                   "--height", height, "--workers", workers, "--out", str(out)])
        assert rc == 0
        assert tree_sha256(out) == self.SHA256[scenes, width, height]


class TestLoadedRasterBytes:
    """Pinned sha256 of what a loaded view serves, independent of how a bundle stores it."""

    SHA256 = "adaa374bfcfca8e5b0b2d091ffd0170e59b96175623d383ace6c0cf3cf51d059"

    def test_loaded_view_sha256_pinned(self, tmp_path):
        from reconkit.oracle.bundle import load_bundle

        out = tmp_path / "tree"
        assert main(["gen-scenes", "--scenes", "3", "--seed", "13", "--width", "160",
                     "--height", "120", "--workers", "1", "--out", str(out)]) == 0
        h = hashlib.sha256()
        for scene in sorted(out.glob("scene_*")):
            for view in load_bundle(scene).views:
                for arr in (view.depth.values, view.depth.valid, view.coords.values, view.masks.stacked()):
                    h.update(arr.tobytes())
        assert h.hexdigest() == self.SHA256


class TestEvalPointmap:
    def test_zero_noise_zero_summary(self, bundle_tree, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "eval-pointmap", "--bundles", str(bundle_tree), "--seed", "1",
            "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["summary"] == {"point_err": 0.0, "normal_err": 0.0, "scale_err": 0.0}
        assert report["failures"] == []

    def test_fixed_seed_reruns_identical(self, bundle_tree, tmp_path):
        args = [
            "eval-pointmap", "--bundles", str(bundle_tree), "--seed", "2",
            "--noise-depth", "0.002", "--noise-coord", "0.0005", "--workers", "1",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_invariance(self, bundle_tree, tmp_path):
        args = [
            "eval-pointmap", "--bundles", str(bundle_tree), "--seed", "2",
            "--noise-depth", "0.002",
        ]
        a, b = tmp_path / "w1.json", tmp_path / "w3.json"
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_depth_noise_increases_point_error(self, bundle_tree, tmp_path):
        errs = []
        for i, sigma in enumerate(("0.001", "0.004")):
            out = tmp_path / f"r{i}.json"
            main([
                "eval-pointmap", "--bundles", str(bundle_tree), "--seed", "2",
                "--noise-depth", sigma, "--workers", "1", "--out", str(out),
            ])
            errs.append(json.loads(out.read_text())["summary"]["point_err"])
        assert 0 < errs[0] < errs[1]


    def test_no_normal_pairs_is_a_failure(self, tmp_path, capsys):
        # these 3x3 views hold 3 or 4 valid pixels, none with four valid neighbours
        tree = tmp_path / "tree"
        assert main(["gen-scenes", "--scenes", "2", "--width", "3", "--height", "3",
                     "--workers", "1", "--out", str(tree)]) == 0
        out = tmp_path / "report.json"
        rc = main(["eval-pointmap", "--bundles", str(tree), "--noise-depth", "0.01",
                   "--workers", "1", "--out", str(out)])
        assert rc == 1
        error = "ValueError: no jointly valid normal pairs across views"
        report = json.loads(out.read_text())
        assert report["failures"] == [{"error": error, "scene": f"scene_0000{i}"} for i in range(2)]
        assert report["scenes"] == [] and "summary" not in report
        assert capsys.readouterr().err.count(error) == 2


    @pytest.mark.parametrize("sigma,error", [("1e100", "ValueError: valid normals must have unit norm"),
                                             ("1e308", "ValueError: no jointly valid normal pairs across views")])
    def test_overflowing_normals_are_failures(self, tmp_path, capsys, sigma, error):
        """Depths whose normals leave the float range fail their scenes, with no RuntimeWarning."""
        tree, out = tmp_path / "tree", tmp_path / "report.json"
        main(["gen-scenes", "--scenes", "2", "--seed", "1", "--width", "64", "--height", "48",
              "--workers", "1", "--out", str(tree)])
        rc = main(["eval-pointmap", "--bundles", str(tree), "--workers", "1", "--noise-depth", sigma,
                   "--out", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["failures"] == [{"error": error, "scene": f"scene_0000{i}"} for i in range(2)]
        assert "RuntimeWarning" not in capsys.readouterr().err


class TestEvalPose:
    def test_zero_noise(self, bundle_tree, tmp_path):
        out = tmp_path / "pose.json"
        rc = main([
            "eval-pose", "--bundles", str(bundle_tree), "--seed", "1",
            "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["summary"]["relative"]["rte"] == 0.0
        assert report["summary"]["relative"]["rta"] == 1.0
        assert report["summary"]["absolute"]["ate"] == 0.0

    def test_thresholds_echoed(self, bundle_tree, tmp_path):
        out = tmp_path / "pose.json"
        main([
            "eval-pose", "--bundles", str(bundle_tree), "--seed", "1",
            "--threshold-rel", "0.07", "--threshold-abs", "0.02",
            "--workers", "1", "--out", str(out),
        ])
        report = json.loads(out.read_text())
        assert report["config"]["t_threshold_rel"] == 0.07
        assert report["config"]["t_threshold_abs"] == 0.02
        assert report["summary"]["relative"]["t_threshold"] == 0.07

    def test_noise_drops_accuracy(self, bundle_tree, tmp_path):
        out = tmp_path / "noisy.json"
        main([
            "eval-pose", "--bundles", str(bundle_tree), "--seed", "1",
            "--noise-trans", "0.05", "--workers", "1", "--out", str(out),
        ])
        report = json.loads(out.read_text())
        assert report["summary"]["relative"]["rta"] < 1.0

    def test_overflowing_error_is_a_failure(self, tmp_path):
        """Translation errors past the float range fail their scenes; the report holds no Infinity."""
        tree, out = tmp_path / "tree", tmp_path / "report.json"
        main(["gen-scenes", "--scenes", "2", "--seed", "1", "--width", "64", "--height", "48",
              "--workers", "1", "--out", str(tree)])
        rc = main(["eval-pose", "--bundles", str(tree), "--workers", "1", "--noise-trans", "1e200", "--out", str(out)])
        assert rc == 1

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["scenes"] == []
        assert report["failures"] == [
            {"error": "ValueError: rte must be finite and non-negative, got inf", "scene": f"scene_0000{i}"}
            for i in range(2)
        ]

    def test_monocular_scene_fails_cleanly(self, tmp_path):
        mono = tmp_path / "mono"
        main(["gen-scenes", "--scenes", "1", "--views", "1", "--seed", "2",
              "--width", "64", "--height", "48", "--workers", "1", "--out", str(mono)])
        out = tmp_path / "report.json"
        rc = main(["eval-pose", "--bundles", str(mono), "--workers", "1", "--out", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["failures"] and "binocular" in report["failures"][0]["error"]


class TestEvalConfig:
    @pytest.mark.parametrize("value", [0.0, -0.03, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["t_threshold_rel", "r_threshold_rel", "t_threshold_abs", "r_threshold_abs"]
    )
    def test_bad_threshold_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})

    def test_negative_threshold_flag_rejected(self, bundle_tree, capsys):
        rc = main(["eval-pose", "--bundles", str(bundle_tree), "--threshold-rel", "-0.03"])
        assert rc == 2
        assert "t_threshold_rel" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("eval-pose", "--threshold-rel", "-1"),
            ("eval-pointmap", "--threshold-abs", "0"),
            ("eval-pointmap", "--noise-depth", "nan"),
            ("eval-pose", "--noise-mask-flip", "2"),
        ],
    )
    def test_rejected_flag_is_one_stderr_line(self, bundle_tree, tmp_path, capsys, command, flag, value):
        out = tmp_path / "report.json"
        rc = main([command, "--bundles", str(bundle_tree), flag, value, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"reconkit {command}: error: {flag}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_rejected_config_file_value_names_its_key(self, bundle_tree, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise_rot": -0.5}))
        rc = main(["eval-pose", "--bundles", str(bundle_tree), "--config", str(cfg)])
        assert rc == 2
        assert "--noise-rot: " in capsys.readouterr().err

    def test_scene_errors_stay_failure_rows(self, bundle_tree, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for scene in ("scene_00000", "scene_00001"):
            (broken / scene).symlink_to(bundle_tree / scene)
        (broken / "scene_00002").mkdir()
        out = tmp_path / "report.json"
        rc = main(["eval-pointmap", "--bundles", str(broken), "--workers", "1", "--out", str(out)])
        assert rc == 1
        failures = json.loads(out.read_text())["failures"]
        assert [f["scene"] for f in failures] == ["scene_00002"]

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--views", "3", "views"), ("--views", "0", "views"), ("--width", "0", "width"),
         ("--height", "-4", "height"), ("--scenes", "-2", "scenes"), ("--scenes", "0", "scenes")],
    )
    def test_gen_scenes_rejects_bad_geometry(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "tree"
        rc = main(["gen-scenes", flag, value, "--workers", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"reconkit gen-scenes: error: {flag}: {field} ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name,value", [("views", 3), ("width", 0), ("height", 0), ("scenes", -2)])
    def test_bad_geometry_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})

    def test_defaults_match_gen_scenes(self):
        assert (RunConfig.width, RunConfig.height) == (630, 476)
        spec = random_scene_spec(0)
        assert (spec.width, spec.height) == (RunConfig.width, RunConfig.height)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called before the flags were checked")


class TestInputChecks:
    """Bad --view, --bundles and --threshold values: one stderr line, exit 2."""

    @staticmethod
    def assert_flag_error(capsys, command, flag):
        err = capsys.readouterr().err
        assert err.startswith(f"reconkit {command}: error: {flag}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("view", ["2", "-1"])
    @pytest.mark.parametrize("command", ["solve-pnp", "compose-points"])
    def test_view_out_of_range(self, bundle_tree, tmp_path, capsys, monkeypatch, command, view):
        monkeypatch.setattr(cli, "mock_predict", _must_not_run)
        out = tmp_path / "out"
        rc = main([command, "--bundle", str(bundle_tree / "scene_00000"), "--view", view,
                   "--out", str(out)])
        assert rc == 2
        err = self.assert_flag_error(capsys, command, "--view")
        assert "2 view(s)" in err and view in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "file", "empty"])
    @pytest.mark.parametrize("command", ["eval-pointmap", "eval-pose"])
    def test_bad_bundles_root(self, bundle_tree, tmp_path, capsys, monkeypatch, command, kind):
        root = {"missing": tmp_path / "nope", "file": bundle_tree / "manifest.json", "empty": tmp_path}[kind]
        monkeypatch.setattr("reconkit.pipeline._run_parallel", _must_not_run)
        out = tmp_path / "report.json"
        rc = main([command, "--bundles", str(root), "--out", str(out)])
        assert rc == 2
        self.assert_flag_error(capsys, command, "--bundles")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["gen-scenes", "eval-pointmap", "eval-pose", "solve-pnp", "compose-points", "check-grads"],
    )
    def test_unwritable_out(self, bundle_tree, tmp_path, capsys, monkeypatch, command):
        (tmp_path / "file").touch()
        out = tmp_path / "file" / "x"
        monkeypatch.setattr(cli, "run_gen_scenes", _must_not_run)  # gen-scenes fails before any scene runs
        scene = ["--bundle", str(bundle_tree / "scene_00000")]
        target = {"gen-scenes": ["--scenes", "1"], "eval-pointmap": ["--bundles", str(bundle_tree)],
                  "eval-pose": ["--bundles", str(bundle_tree)], "solve-pnp": scene,
                  "compose-points": scene, "check-grads": []}[command]
        rc = main([command, *target, "--workers", "1", "--out", str(out)])
        assert rc == 2
        assert f"{out}: Not a directory" in self.assert_flag_error(capsys, command, "--out")

    @pytest.mark.parametrize("value", ["7", "0", "1", "-0.5", "nan"])
    def test_threshold_checked_before_bundle_load(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setattr(cli, "load_bundle", _must_not_run)
        rc = main(["compose-points", "--bundle", str(tmp_path / "absent"), "--threshold", value])
        assert rc == 2
        self.assert_flag_error(capsys, "compose-points", "--threshold")

    def test_threshold_from_config_checked(self, bundle_tree, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 1.5}))
        rc = main(["compose-points", "--bundle", str(bundle_tree / "scene_00000"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "1.5" in self.assert_flag_error(capsys, "compose-points", "--threshold")

    @pytest.mark.parametrize(
        "command,flag,value",
        [("solve-pnp", "--temperature", "0"), ("solve-pnp", "--temperature", "-0.05"),
         ("solve-pnp", "--temperature", "nan"), ("solve-pnp", "--temperature", "inf"),
         ("check-grads", "--eps", "0"), ("check-grads", "--eps", "-0.001"), ("check-grads", "--eps", "nan"),
         ("gen-scenes", "--workers", "-3"), ("eval-pose", "--workers", "-3"),
         ("eval-pointmap", "--workers", "-1"), ("compose-points", "--workers", "-1")],
    )
    def test_numeric_flag_checked_up_front(self, bundle_tree, tmp_path, capsys, monkeypatch,
                                           command, flag, value):
        for name in ("load_bundle", "run_eval", "run_gen_scenes", "check_gradient"):
            monkeypatch.setattr(cli, name, _must_not_run)
        target = {"gen-scenes": ["--scenes", "1"], "eval-pointmap": ["--bundles", str(bundle_tree)],
                  "eval-pose": ["--bundles", str(bundle_tree)], "check-grads": []}.get(
                      command, ["--bundle", str(bundle_tree / "scene_00000")])
        out = tmp_path / "out"
        rc = main([command, *target, flag, value, "--out", str(out)])
        assert rc == 2
        got = value if flag == "--workers" else float(value)
        assert f"got {got}" in self.assert_flag_error(capsys, command, flag)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-scenes", "eval-pointmap", "compose-points", "check-grads"])
    def test_negative_seed_checked_up_front(self, bundle_tree, tmp_path, capsys, monkeypatch, command):
        for name in ("load_bundle", "run_eval", "run_gen_scenes", "check_gradient"):
            monkeypatch.setattr(cli, name, _must_not_run)
        target = {"gen-scenes": ["--scenes", "1"], "eval-pointmap": ["--bundles", str(bundle_tree)],
                  "compose-points": ["--bundle", str(bundle_tree / "scene_00000")]}.get(command, [])
        assert main([command, *target, "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "must be >= 0, got -1" in self.assert_flag_error(capsys, command, "--seed")

    # command -> its path flags, each with a value that would run it
    PATH_FLAGS = {
        "gen-scenes": {"out": "tree"},
        "eval-pointmap": {"bundles": ".", "out": "report.json"},
        "eval-pose": {"bundles": ".", "out": "report.json"},
        "solve-pnp": {"bundle": ".", "out": "report.json", "keypoints": None, "heatmap": None},
        "compose-points": {"bundle": ".", "out": "composed"},
        "check-grads": {"out": "report.json"},
    }

    @pytest.mark.parametrize("command,flag", [(command, flag) for command, flags in PATH_FLAGS.items()
                                              for flag in ("config", *flags)])
    def test_empty_path_flag_refused(self, bundle_tree, tmp_path, capsys, monkeypatch, command, flag):
        # run inside a bundle, where an empty path, read as ".", would name a real bundle
        shutil.copytree(bundle_tree / "scene_00000", tmp_path / "scene")
        monkeypatch.chdir(tmp_path / "scene")
        for name in ("load_bundle", "run_eval", "run_gen_scenes", "check_gradient", "solve_pnp"):
            monkeypatch.setattr(cli, name, _must_not_run)
        values = {name: value for name, value in self.PATH_FLAGS[command].items() if value is not None}
        values[flag] = ""
        rc = main([command, *(f"--{name}={value}" for name, value in values.items())])
        assert rc == 2
        self.assert_flag_error(capsys, command, f"--{flag}")
        assert sorted(os.listdir(".")) == sorted(os.listdir(bundle_tree / "scene_00000"))

    def assert_pnp_input_error(self, bundle_tree, capsys, monkeypatch, flag, path, message):
        monkeypatch.setattr(cli, "solve_pnp", _must_not_run)
        rc = main(["solve-pnp", "--bundle", str(bundle_tree / "scene_00000"), flag, str(path)])
        assert rc == 2
        err = self.assert_flag_error(capsys, "solve-pnp", flag)
        assert err.startswith(f"reconkit solve-pnp: error: {flag}: {path}: ")
        assert message in err and err.count(str(path)) == 1

    @pytest.mark.parametrize(
        "content,message",
        [(None, "No such file or directory"), ("[[1, 2]", "Expecting ',' delimiter"),
         ("[[1, 2], [3]]", "inhomogeneous shape"), ('[["a", "b"]]', "could not convert string to float"),
         ('{"u": 1}', "not 'dict'"), ("[[1, 2], [3, 4]]", "shape (8, 2), got shape (2, 2)"),
         (json.dumps([[float("nan"), 1.0]] + [[1.0, 2.0]] * 7), "finite values of shape (8, 2)")],
    )
    def test_bad_keypoints_file(self, bundle_tree, tmp_path, capsys, monkeypatch, content, message):
        path = tmp_path / "kp.json"
        if content is not None:
            path.write_text(content)
        self.assert_pnp_input_error(bundle_tree, capsys, monkeypatch, "--keypoints", path, message)

    # (height, width, keypoints) drawn, one value set at a pixel, bytes kept; None: no file
    @pytest.mark.parametrize(
        "drawn,message",
        [(None, "No such file or directory"),
         (((72, 96, 8), None, 100), "truncated raster at byte 100"),
         (((72, 96, 8), float("nan"), None), "finite values of shape (72, 96, 8)"),
         (((72, 95, 8), None, None), "shape (72, 96, 8), got shape (72, 95, 8)"),
         (((72, 96, 7), None, None), "shape (72, 96, 8), got shape (72, 96, 7)"),
         (((72, 96, 8), -1.0, None), "heatmap entries must be finite and >= 0")],
    )
    def test_bad_heatmap_file(self, bundle_tree, tmp_path, capsys, monkeypatch, drawn, message):
        from reconkit.oracle.bundle import load_bundle
        from reconkit.oracle.mock import synthesize_heatmaps

        path = tmp_path / "hm.r3rb"
        if drawn is not None:
            (height, width, n_kp), value, kept = drawn
            kp = load_bundle(bundle_tree / "scene_00000").keypoints_2d[0]
            hm = synthesize_heatmaps(kp[:n_kp], width, height, 3.0)
            if value is not None:
                hm[5, 6, 2] = value
            write_raster(path, hm)
            if kept is not None:
                path.write_bytes(path.read_bytes()[:kept])
        self.assert_pnp_input_error(bundle_tree, capsys, monkeypatch, "--heatmap", path, message)

    # damage -> what the error names; the last is found only when the
    # payload is read, after load_bundle has returned
    BUNDLE_DAMAGE = {
        "missing": "meta.json",
        "missing_raster": "view_1_labels.r3rb: No such file or directory",
        "width": "view_0_depth.r3rb: shape (72, 96), expected (72, 100)",
        "mask_range": "view_0_labels.r3rb: part label 4 outside [0, 3]",
        "meta_list": "meta.json: must hold a JSON object, got list",
        "chain_null": "chain.json: must hold a JSON object, got NoneType",
    }

    @staticmethod
    def damaged_bundle(bundle_tree, tmp_path, damage) -> Path:
        scene = tmp_path / "scene"
        if damage == "missing":
            return scene
        shutil.copytree(bundle_tree / "scene_00000", scene)
        if damage == "missing_raster":
            (scene / "view_1_labels.r3rb").unlink()
        elif damage == "meta_list":  # valid JSON that is not an object
            (scene / "meta.json").write_text("[]")
        elif damage == "chain_null":
            (scene / "chain.json").write_text("null")
        elif damage == "width":
            meta = json.loads((scene / "meta.json").read_text())
            meta["views"][0]["intrinsics"]["width"] = 100
            (scene / "meta.json").write_text(json.dumps(meta))
        else:  # mask_range: a part label past LABEL_BACKGROUND
            arr = read_raster(scene / "view_0_labels.r3rb")
            arr[5, 6] = 4
            write_raster(scene / "view_0_labels.r3rb", arr)
        return scene

    @pytest.mark.parametrize(
        "command,damage",
        [("solve-pnp", "missing"), ("solve-pnp", "missing_raster"), ("solve-pnp", "width"),
         ("solve-pnp", "meta_list"), ("solve-pnp", "chain_null"),
         ("compose-points", "missing"), ("compose-points", "missing_raster"),
         ("compose-points", "width"), ("compose-points", "mask_range"),
         ("compose-points", "meta_list"), ("compose-points", "chain_null")],
    )
    def test_bad_bundle(self, bundle_tree, tmp_path, capsys, command, damage):
        scene = self.damaged_bundle(bundle_tree, tmp_path, damage)
        out = tmp_path / "out"
        rc = main([command, "--bundle", str(scene), "--out", str(out)])
        assert rc == 2
        assert self.BUNDLE_DAMAGE[damage] in self.assert_flag_error(capsys, command, "--bundle")
        assert not out.exists()

    @pytest.mark.parametrize("damage,error", [("missing_raster", "MissingMetadataError"),
                                              ("meta_list", "MalformedMetadataError")])
    def test_bad_bundle_is_failure_row(self, bundle_tree, tmp_path, damage, error):
        tree = tmp_path / "tree"
        tree.mkdir()
        for scene in ("scene_00000", "scene_00002"):
            (tree / scene).symlink_to(bundle_tree / scene)
        self.damaged_bundle(bundle_tree, tree, damage).rename(tree / "scene_00001")
        out = tmp_path / "report.json"
        rc = main(["eval-pose", "--bundles", str(tree), "--workers", "1", "--out", str(out)])
        assert rc == 1
        [failure] = json.loads(out.read_text())["failures"]
        assert failure["scene"] == "scene_00001"
        assert failure["error"].startswith(f"{error}: ")
        assert self.BUNDLE_DAMAGE[damage] in failure["error"]

    @pytest.mark.parametrize(
        "manifest,message",
        [("{", "JSONDecodeError: Expecting property name"), ("[]", "TypeError: list indices"),
         ('{"bundles": [{"seed": 1}]}', "KeyError: 'path'")],
    )
    def test_malformed_manifest(self, tmp_path, capsys, monkeypatch, manifest, message):
        (tmp_path / "manifest.json").write_text(manifest)
        monkeypatch.setattr("reconkit.pipeline._run_parallel", _must_not_run)
        out = tmp_path / "report.json"
        assert main(["eval-pose", "--bundles", str(tmp_path), "--out", str(out)]) == 2
        err = self.assert_flag_error(capsys, "eval-pose", "--bundles")
        assert f"{tmp_path / 'manifest.json'}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    @pytest.mark.parametrize("command", ["eval-pointmap", "eval-pose"])
    def test_manifest_entry_outside_root(self, bundle_tree, tmp_path, capsys, monkeypatch, command, where):
        """A manifest entry naming a bundle of another tree, which would be scored as this tree's, exits 2."""
        root = tmp_path / "tree"
        shutil.copytree(bundle_tree, root)
        shutil.copytree(bundle_tree, tmp_path / "other")
        entry = {"absolute": str(tmp_path / "other" / "scene_00000"), "parent": "../other/scene_00000"}[where]
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["bundles"].append({"path": entry, "seed": 0})
        (root / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr("reconkit.pipeline._run_parallel", _must_not_run)
        out = tmp_path / "report.json"
        assert main([command, "--bundles", str(root), "--out", str(out)]) == 2
        err = self.assert_flag_error(capsys, command, "--bundles")
        assert f"{root / 'manifest.json'}: bundle path {entry!r} is not one name directly under {root}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-pointmap", "eval-pose"])
    def test_repeated_manifest_entry(self, bundle_tree, tmp_path, capsys, monkeypatch, command):
        """A manifest that lists one bundle twice, which would weigh double in every summary, exits 2."""
        root = tmp_path / "tree"
        shutil.copytree(bundle_tree, root)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["bundles"].append(manifest["bundles"][0])
        (root / "manifest.json").write_text(json.dumps(manifest))
        monkeypatch.setattr("reconkit.pipeline._run_parallel", _must_not_run)
        out = tmp_path / "report.json"
        assert main([command, "--bundles", str(root), "--out", str(out)]) == 2
        err = self.assert_flag_error(capsys, command, "--bundles")
        assert f"{root / 'manifest.json'}: bundle path 'scene_00000' is listed more than once" in err
        assert not out.exists()

    def test_keypoints_with_heatmap(self, bundle_tree, tmp_path, capsys, monkeypatch):
        """Two sources of pixels are refused before the bundle is read, not one of them silently ignored."""
        from reconkit.oracle.mock import ground_truth_heatmaps

        bundle = cli.load_bundle(bundle_tree / "scene_00000")
        keypoints, heatmap = tmp_path / "kp.json", tmp_path / "hm.r3rb"
        keypoints.write_text(json.dumps(bundle.keypoints_2d[0].tolist()))
        write_raster(heatmap, ground_truth_heatmaps(bundle)[0])
        monkeypatch.setattr(cli, "load_bundle", _must_not_run)
        out = tmp_path / "pnp.json"
        rc = main(["solve-pnp", "--bundle", str(bundle_tree / "scene_00000"), "--keypoints", str(keypoints),
                   "--heatmap", str(heatmap), "--out", str(out)])
        assert rc == 2
        assert "--keypoints" in self.assert_flag_error(capsys, "solve-pnp", "--heatmap")
        assert not out.exists()

    # derived keypoints -> (file, key path, the rejecting check's message) of a NaN in what they derive from
    KEYPOINT_SOURCES = {
        "keypoints_3d": ("chain.json", ("keypoints", 0, "offset", 0), "keypoint offset must be finite, got nan"),
        "keypoints_2d": ("meta.json", ("views", 0, "pose_world", 3, 0), "pose_world must be finite, got nan"),
    }

    @pytest.mark.parametrize("key", ["keypoints_3d", "keypoints_2d"])
    def test_non_finite_bundle_keypoints(self, bundle_tree, tmp_path, capsys, monkeypatch, key):
        name, path, message = self.KEYPOINT_SOURCES[key]
        scene = tmp_path / "scene"
        shutil.copytree(bundle_tree / "scene_00000", scene)
        doc = json.loads((scene / name).read_text())
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        parent[path[-1]] = float("nan")
        (scene / name).write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "solve_pnp", _must_not_run)
        assert main(["solve-pnp", "--bundle", str(scene)]) == 2
        err = self.assert_flag_error(capsys, "solve-pnp", "--bundle")
        assert f"{name}: {message}" in err

    def test_keypoint_behind_bundle_camera(self, bundle_tree, tmp_path, capsys, monkeypatch):
        scene = tmp_path / "scene"
        shutil.copytree(bundle_tree / "scene_00000", scene)
        meta = json.loads((scene / "meta.json").read_text())
        for row in meta["views"][1]["pose_world"][:3]:  # turn camera 1 about its x axis: it looks away
            row[1], row[2] = -row[1], -row[2]
        (scene / "meta.json").write_text(json.dumps(meta))
        monkeypatch.setattr(cli, "solve_pnp", _must_not_run)
        assert main(["solve-pnp", "--bundle", str(scene)]) == 2
        err = self.assert_flag_error(capsys, "solve-pnp", "--bundle")
        assert "--bundle: view 1: keypoint " in err and " is at or behind the camera (depth -" in err

    def test_short_bundle_joint_state(self, bundle_tree, tmp_path, capsys, monkeypatch):
        scene = tmp_path / "scene"
        shutil.copytree(bundle_tree / "scene_00000", scene)
        meta = json.loads((scene / "meta.json").read_text())
        meta["joint_state"].pop()
        (scene / "meta.json").write_text(json.dumps(meta))
        monkeypatch.setattr(cli, "solve_pnp", _must_not_run)
        assert main(["solve-pnp", "--bundle", str(scene)]) == 2
        err = self.assert_flag_error(capsys, "solve-pnp", "--bundle")
        assert "meta.json: joint state: expected shape (4,), got [" in err

    @pytest.mark.parametrize(
        "key,value,message",
        [("fx", float("inf"), "fx must be finite and positive, got inf"),
         ("fx", True, "fx: expected a number, got True"),
         ("width", 96.0, "image width: expected an integer, got 96.0")],
    )
    @pytest.mark.parametrize("command", ["solve-pnp", "compose-points"])
    def test_bad_intrinsics(self, bundle_tree, tmp_path, capsys, monkeypatch, command, key, value, message):
        scene = tmp_path / "scene"
        shutil.copytree(bundle_tree / "scene_00000", scene)
        meta = json.loads((scene / "meta.json").read_text())
        meta["views"][0]["intrinsics"][key] = value
        (scene / "meta.json").write_text(json.dumps(meta))
        monkeypatch.setattr(cli, "mock_predict", _must_not_run)
        monkeypatch.setattr(cli, "solve_pnp", _must_not_run)
        assert main([command, "--bundle", str(scene)]) == 2
        err = self.assert_flag_error(capsys, command, "--bundle")
        assert f"meta.json: {message}" in err

    @pytest.mark.parametrize(
        "content,message",
        [(None, "No such file"), (b'{"seed": 1', "Expecting ',' delimiter"),
         (b"", "Expecting value"), (b"\xff{}", "can't decode byte 0xff")],
    )
    @pytest.mark.parametrize("command", ["eval-pose", "compose-points"])
    def test_unreadable_config(self, bundle_tree, tmp_path, capsys, monkeypatch, command,
                               content, message):
        monkeypatch.setattr(cli, "load_bundle", _must_not_run)
        monkeypatch.setattr(cli, "run_eval", _must_not_run)
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        target = ["--bundle", str(bundle_tree / "scene_00000")] if command == "compose-points" \
            else ["--bundles", str(bundle_tree)]
        rc = main([command, *target, "--config", str(cfg)])
        assert rc == 2
        err = self.assert_flag_error(capsys, command, "--config")
        assert str(cfg) in err and message in err


class TestReportBytes:
    """Pinned sha256 of noisy eval reports over the 96x72 `bundle_tree`."""

    NOISE = [
        "--noise-depth", "0.002", "--noise-coord", "0.0005", "--noise-mask-flip", "0.05",
        "--noise-heatmap-blur", "0.5", "--noise-trans", "0.01", "--noise-rot", "0.005",
        "--noise-scale", "0.01",
    ]
    SHA256 = {
        "eval-pointmap": "b1ac099ba2747aeeba91af9378d6f9359b3b37cdd37762ebc1a2af18956b4747",
        "eval-pose": "35e41e6e0306d95acf502c13f3d9b62687c7eb4faf3ccbb945da68db9e891b83",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["eval-pointmap", "eval-pose"])
    def test_report_sha256_pinned(self, bundle_tree, tmp_path, command, workers):
        out = tmp_path / "report.json"
        rc = main([command, "--bundles", str(bundle_tree), "--seed", "4", *self.NOISE,
                   "--workers", workers, "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[command]


class TestEvalConsoleLines:
    """Pinned stdout of the eval commands' summaries over the 96x72 `bundle_tree`."""

    STDOUT = {
        ("eval-pointmap",): "point_err 0.000948691  normal_err 0.0900282  scale_err 0.00774254  (3 scenes)\n",
        ("eval-pose",): (
            "RTE 0.0164356  RRE 0.00563219  RTA@0.03 1.000  RRA@0.03 1.000\n"
            "ATE 0.0168928  ARE 0.00103435  ATA@0.01 0.000  ARA@0.01 1.000\n"
        ),
        ("eval-pose", "--threshold-rel", "0.015", "--threshold-abs", "0.0175"): (
            "RTE 0.0164356  RRE 0.00563219  RTA@0.015 0.667  RRA@0.015 1.000\n"
            "ATE 0.0168928  ARE 0.00103435  ATA@0.0175 0.667  ARA@0.0175 1.000\n"
        ),
    }

    @pytest.mark.parametrize("argv", sorted(STDOUT))
    def test_stdout_pinned(self, bundle_tree, capsys, argv):
        capsys.readouterr()
        rc = main([*argv, "--bundles", str(bundle_tree), "--seed", "4", *TestReportBytes.NOISE, "--workers", "1"])
        assert rc == 0
        assert capsys.readouterr().out == self.STDOUT[argv]


class TestSolvePnP:
    def test_oracle_bundle_round_trip(self, bundle_tree, tmp_path):
        out = tmp_path / "pnp.json"
        rc = main([
            "solve-pnp", "--bundle", str(bundle_tree / "scene_00000"),
            "--view", "0", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["error_vs_bundle"]["translation_m"] < 1e-6
        assert report["error_vs_bundle"]["rotation_rad"] < 1e-6

    def test_explicit_keypoints_file(self, bundle_tree, tmp_path):
        from reconkit.oracle.bundle import load_bundle

        kp = load_bundle(bundle_tree / "scene_00000").keypoints_2d[1]
        kp_file = tmp_path / "kp.json"
        kp_file.write_text(json.dumps(kp.tolist()))
        out = tmp_path / "pnp.json"
        rc = main([
            "solve-pnp", "--bundle", str(bundle_tree / "scene_00000"),
            "--view", "1", "--keypoints", str(kp_file), "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["error_vs_bundle"]["translation_m"] < 1e-6

    @pytest.mark.parametrize("entry", [True, "12.3"], ids=["true", "string"])
    def test_keypoints_entry_not_a_number(self, bundle_tree, tmp_path, capsys, monkeypatch, entry):
        """A true or a numeric string among the pixels, which numpy would read as a number, exits 2."""
        from reconkit.oracle.bundle import load_bundle

        monkeypatch.setattr(cli, "solve_pnp", _must_not_run)
        rows = load_bundle(bundle_tree / "scene_00000").keypoints_2d[0].tolist()
        rows[3][1] = entry
        path = tmp_path / "kp.json"
        path.write_text(json.dumps(rows))
        assert main(["solve-pnp", "--bundle", str(bundle_tree / "scene_00000"), "--keypoints", str(path)]) == 2
        err = TestInputChecks.assert_flag_error(capsys, "solve-pnp", "--keypoints")
        assert err == f"reconkit solve-pnp: error: --keypoints: {path}: keypoints: expected a number, got {entry!r}\n"

    def test_heatmap_decoding_path(self, bundle_tree, tmp_path):
        from reconkit.oracle.bundle import load_bundle
        from reconkit.oracle.mock import synthesize_heatmaps
        from reconkit.oracle.raster import write_raster

        bundle = load_bundle(bundle_tree / "scene_00000")
        hm = synthesize_heatmaps(
            bundle.keypoints_2d[0], bundle.spec.width, bundle.spec.height, 3.0
        )
        hm_file = tmp_path / "hm.r3rb"
        write_raster(hm_file, hm)
        out = tmp_path / "pnp.json"
        rc = main([
            "solve-pnp", "--bundle", str(bundle_tree / "scene_00000"),
            "--view", "0", "--heatmap", str(hm_file),
            "--temperature", "0.05", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["source"] == "heatmap soft-argmax"
        # sub-pixel decode: pose recovered to sub-millimeter accuracy
        assert report["error_vs_bundle"]["translation_m"] < 1e-3


    def test_heatmap_default_temperature(self, tmp_path):
        from reconkit.oracle.bundle import load_bundle
        from reconkit.oracle.mock import ground_truth_heatmaps
        from reconkit.oracle.raster import write_raster

        tree = tmp_path / "tree"
        main(["gen-scenes", "--scenes", "1", "--seed", "3", "--width", "160",
              "--height", "120", "--workers", "1", "--out", str(tree)])
        scene = tree / "scene_00000"
        write_raster(tmp_path / "hm.r3rb", ground_truth_heatmaps(load_bundle(scene))[0])
        out = tmp_path / "pnp.json"
        rc = main(["solve-pnp", "--bundle", str(scene), "--view", "0",
                   "--heatmap", str(tmp_path / "hm.r3rb"), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["temperature"] == 0.05
        assert report["error_vs_bundle"]["translation_m"] < 5e-3

    # sha256 of the successful report of each keypoint source on view 1 of scene_00001
    REPORT_SHA256 = {
        "default": "354767a708184a33d949c27f39e085f05f906c92941b999afaf0bad1865c5cc1",
        "keypoints": "e6d8c8daf0c453faf7c5b5a96d2c81be83e9e459c4756f3a9f7d303c1085fe51",
        "heatmap": "02047d0faec22874784930570059cbb510ee1c92b65d2e3c55c6351c9b1d70cb",
    }

    @pytest.mark.parametrize("source", ["default", "keypoints", "heatmap"])
    def test_report_sha256_pinned(self, bundle_tree, tmp_path, monkeypatch, source):
        from reconkit.oracle.bundle import load_bundle
        from reconkit.oracle.mock import ground_truth_heatmaps

        bundle = load_bundle(bundle_tree / "scene_00001")
        (tmp_path / "kp.json").write_text(json.dumps(bundle.keypoints_2d[1].tolist()))
        write_raster(tmp_path / "hm.r3rb", ground_truth_heatmaps(bundle)[1])
        flags = {"default": [], "keypoints": ["--keypoints", str(tmp_path / "kp.json")],
                 "heatmap": ["--heatmap", str(tmp_path / "hm.r3rb")]}[source]
        monkeypatch.chdir(bundle_tree)  # the report echoes the --bundle path
        out = tmp_path / "pnp.json"
        assert main(["solve-pnp", "--bundle", "scene_00001", "--view", "1", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.REPORT_SHA256[source]

    @staticmethod
    def assert_failure_row(capsys, out, scene, error):
        assert capsys.readouterr().err == f"FAILED {scene}: {error}\n"
        report = json.loads(out.read_text())
        assert report["failures"] == [{"scene": str(scene), "error": error}]
        assert set(report) == {"command", "config", "failures"}

    def test_identical_pixels_are_a_failure_row(self, bundle_tree, tmp_path, capsys):
        kp_file = tmp_path / "kp.json"
        kp_file.write_text(json.dumps([[10, 10]] * 8))
        out, scene = tmp_path / "pnp.json", bundle_tree / "scene_00000"
        assert main(["solve-pnp", "--bundle", str(scene), "--keypoints", str(kp_file), "--out", str(out)]) == 1
        error = "DegenerateConfigurationError: pixels lie within 0.001 px of their centroid"
        self.assert_failure_row(capsys, out, scene, error)

    def test_nearly_identical_pixels_are_a_failure_row(self, bundle_tree, tmp_path, capsys):
        from reconkit.oracle.bundle import load_bundle
        from reconkit.oracle.mock import ground_truth_heatmaps

        # a huge temperature flattens the softmax: every keypoint decodes within 1e-9 px of one point
        scene = bundle_tree / "scene_00000"
        write_raster(tmp_path / "hm.r3rb", ground_truth_heatmaps(load_bundle(scene))[0])
        out = tmp_path / "pnp.json"
        rc = main(["solve-pnp", "--bundle", str(scene), "--view", "0", "--heatmap", str(tmp_path / "hm.r3rb"),
                   "--temperature", "1e9", "--out", str(out)])
        assert rc == 1
        error = "DegenerateConfigurationError: pixels lie within 0.001 px of their centroid"
        self.assert_failure_row(capsys, out, scene, error)

    @pytest.mark.parametrize("far", ["all", "one"])
    def test_overflowing_pixels_are_a_failure_row(self, bundle_tree, tmp_path, capsys, far):
        """Pixels near 1e300, or one at 1e308, overflow the squared reprojection errors: exit 1, not a traceback."""
        from reconkit.oracle.bundle import load_bundle

        scene = bundle_tree / "scene_00000"
        rows = load_bundle(scene).keypoints_2d[0].tolist()
        if far == "all":
            rows = [[1e300 + i * 1e298, 1e300 - i * 1e297] for i in range(len(rows))]
        else:
            rows[0] = [1e308, 1e308]
        (tmp_path / "kp.json").write_text(json.dumps(rows))
        out = tmp_path / "pnp.json"
        assert main(["solve-pnp", "--bundle", str(scene), "--keypoints", str(tmp_path / "kp.json"),
                     "--out", str(out)]) == 1
        error = "NonConvergenceError: no initialization led to a converged solution"
        self.assert_failure_row(capsys, out, scene, error)

    @pytest.mark.parametrize("error", [DegenerateConfigurationError, NonConvergenceError, RankDeficientError])
    def test_pnp_failure_is_a_failure_row(self, bundle_tree, tmp_path, capsys, monkeypatch, error):
        def solve_pnp(*args):
            raise error("no pose")

        monkeypatch.setattr(cli, "solve_pnp", solve_pnp)
        out, scene = tmp_path / "pnp.json", bundle_tree / "scene_00000"
        assert main(["solve-pnp", "--bundle", str(scene), "--out", str(out)]) == 1
        self.assert_failure_row(capsys, out, scene, f"{error.__name__}: no pose")


class TestWorkerPool:
    """Pools start no more processes than there are scenes."""

    class Pool:
        """A ProcessPoolExecutor stand-in that records max_workers, starts nothing and maps inline."""

        made = []
        initializers = []

        def __init__(self, max_workers, initializer=None):
            self.made.append(max_workers)
            self.initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    @pytest.fixture
    def pools(self, monkeypatch):
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", self.Pool)
        monkeypatch.setattr(self.Pool, "made", [])
        monkeypatch.setattr(self.Pool, "initializers", [])
        monkeypatch.setattr(cli, "default_workers", lambda: 64)  # --workers 0: a many-core host
        return self.Pool.made

    @pytest.mark.parametrize("workers,pools_made", [("0", [3]), ("64", [3]), ("2", [2]), ("1", [])])
    def test_eval_capped_at_scenes(self, bundle_tree, tmp_path, pools, workers, pools_made):
        rc = main(["eval-pose", "--bundles", str(bundle_tree), "--workers", workers,
                   "--out", str(tmp_path / "pose.json")])
        assert rc == 0 and pools == pools_made

    @pytest.mark.parametrize("scenes,pools_made", [("1", []), ("2", [2])])
    def test_gen_scenes_capped_at_scenes(self, tmp_path, pools, scenes, pools_made):
        rc = main(["gen-scenes", "--scenes", scenes, "--width", "32", "--height", "24",
                   "--workers", "0", "--out", str(tmp_path / "tree")])
        assert rc == 0 and pools == pools_made

    def test_workers_retain_freed_memory(self, bundle_tree, tmp_path, pools):
        rc = main(["eval-pose", "--bundles", str(bundle_tree), "--workers", "2", "--out", str(tmp_path / "pose.json")])
        assert rc == 0 and self.Pool.initializers == [pipeline.retain_freed_memory]

    def test_default_workers_counts_usable_cpus(self, monkeypatch):
        import os

        from reconkit.pipeline import default_workers

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert default_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_workers() == 64


# run in a fresh interpreter: eval-pointmap twice in process, minor page faults of each call
TWICE = """
import json, resource, sys
from reconkit import cli
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    code = cli.main(["eval-pointmap", "--bundles", sys.argv[1], "--workers", "1", "--noise-depth", "0.002",
                     "--out", sys.argv[2]])
    faults.append((code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before))
print(json.dumps(faults))
"""


class TestRetainFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_second_run_reuses_freed_pages(self, bundle_tree, tmp_path):
        src = str(Path(pipeline.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", TWICE, str(bundle_tree), str(tmp_path / "r.json")],
                              env=env, capture_output=True, text=True, check=True, timeout=120)
        (code1, first), (code2, second) = json.loads(done.stdout.splitlines()[-1])
        assert code1 == code2 == 0
        assert second < first / 10, (first, second)

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        pipeline.retain_freed_memory()
        trim = pipeline.TRIM_THRESHOLD_BYTES
        assert calls == [(pipeline.M_MMAP_THRESHOLD, 32 << 20), (pipeline.M_TRIM_THRESHOLD, trim)]

    @pytest.mark.parametrize("libc", ["no mallopt", "no CDLL(None)"])
    def test_no_op_without_mallopt(self, monkeypatch, capsys, libc):
        def cdll(name):
            if libc == "no CDLL(None)":  # Windows
                raise TypeError("expected str, bytes or os.PathLike object, not NoneType")
            return types.SimpleNamespace()  # a C library without mallopt, as on macOS

        monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)
        assert pipeline.retain_freed_memory() is None
        assert capsys.readouterr() == ("", "")

    @pytest.fixture
    def events(self, monkeypatch):
        """What _run_parallel calls, in order: ("malloc_trim", pad) from a stub C library, ("pool", n) from a
        stub ProcessPoolExecutor that starts nothing and maps inline."""
        events = []

        class Pool(TestWorkerPool.Pool):
            def __init__(self, max_workers, initializer=None):
                events.append(("pool", max_workers))

        def malloc_trim(pad):
            events.append(("malloc_trim", pad))

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(pipeline.ctypes, "CDLL", lambda name: types.SimpleNamespace(malloc_trim=malloc_trim))
        return events

    @pytest.mark.parametrize("workers,expected", [
        (1, []),
        (2, [("malloc_trim", 0), ("pool", 2)]),
        (3, [("malloc_trim", 0), ("pool", 3)]),
        (8, [("malloc_trim", 0), ("pool", 3)]),
    ])
    def test_heap_handed_back_before_the_pool(self, events, workers, expected):
        assert pipeline._run_parallel(abs, [-1, 2, -3], workers) == [1, 2, 3]
        assert events == expected

    @pytest.mark.parametrize("libc", ["no malloc_trim", "no CDLL(None)"])
    def test_no_trim_without_malloc_trim(self, monkeypatch, capsys, events, libc):
        def cdll(name):
            if libc == "no CDLL(None)":  # Windows
                raise TypeError("expected str, bytes or os.PathLike object, not NoneType")
            return types.SimpleNamespace()  # a C library without malloc_trim, as on macOS

        monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)
        assert pipeline._run_parallel(abs, [-1, 2, -3], 2) == [1, 2, 3]
        assert events == [("pool", 2)]
        assert capsys.readouterr() == ("", "")


class TestDefaultSizeCeilings:
    """At the default 630x476 size each scene step's traced peak stays below the freed heap a process keeps
    (pipeline.TRIM_THRESHOLD_BYTES), so a run's next scene reuses its pages instead of faulting them in again.
    The peaks are fixed for a given numpy."""

    NOISE = NoiseModel(depth_sigma=0.002, coord_sigma=0.0002, heatmap_blur=0.5, mask_flip_rate=0.01)

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("default_size") / "tree"
        assert main(["gen-scenes", "--scenes", "1", "--seed", "1", "--workers", "1", "--out", str(out)]) == 0
        assert load_bundle(out / "scene_00000").views[0].intrinsics.width == 630
        return out / "scene_00000"

    @staticmethod
    def assert_peak_retained(step, ceiling=pipeline.TRIM_THRESHOLD_BYTES):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling, f"traced peak {peak / 2**20:.1f} MiB"

    def test_gen_scene_step(self, tmp_path):
        def step():  # pipeline._gen_one's steps for the scene the fixture's gen-scenes call writes
            seed = pipeline.scene_seed(1, 0)
            save_bundle(tmp_path / "scene", generate_scene(random_scene_spec(seed), seed))

        # a view is cast in bands of rows: about the bundle's own 5.4 MB, not a frame of temporaries per cast
        self.assert_peak_retained(step, ceiling=8 << 20)

    def test_pointmap_scene(self, scene):
        self.assert_peak_retained(lambda: pipeline.evaluate_pointmap_scene(load_bundle(scene), self.NOISE, 1))

    def test_validate_bundle(self, scene):
        self.assert_peak_retained(lambda: validate_bundle(load_bundle(scene)))

    def test_ground_truth_heatmaps_of_one_view(self, scene):
        self.assert_peak_retained(lambda: ground_truth_heatmaps(load_bundle(scene))[0])

    def test_zero_noise_compose_points(self, scene, tmp_path, capsys):
        codes = []
        self.assert_peak_retained(lambda: codes.append(main(["compose-points", "--bundle", str(scene),
                                                             "--out", str(tmp_path / "out")])))
        assert codes == [0]


class TestComposePoints:
    def test_zero_noise_matches_oracle_restriction(self, bundle_tree, tmp_path):
        from reconkit.camera import CoordMap, DepthMap, unproject
        from reconkit.masks import binarize
        from reconkit.oracle.bundle import load_bundle

        out = tmp_path / "composed"
        rc = main([
            "compose-points", "--bundle", str(bundle_tree / "scene_00001"),
            "--view", "0", "--out", str(out),
        ])
        assert rc == 0
        bundle = load_bundle(bundle_tree / "scene_00001")
        view = bundle.views[0]
        expected = unproject(view.coords, view.depth)
        labels = binarize(view.masks, 0.5)
        keep = expected.valid & (labels > 0)
        pts = read_raster(out / "points.r3rb")
        valid = read_raster(out / "points_valid.r3rb").astype(bool)
        got_labels = read_raster(out / "labels.r3rb")
        np.testing.assert_array_equal(valid, keep)
        np.testing.assert_array_equal(pts[keep], expected.values[keep])
        np.testing.assert_array_equal(got_labels[keep], labels[keep])

    @pytest.mark.parametrize(
        "flag,error",
        [("--noise-coord", "ValueError: coord map contains non-finite entries"),
         ("--noise-scale", "ValueError: similarity scale must be finite and positive, got inf")],
    )
    def test_non_finite_prediction_is_a_failure(self, bundle_tree, tmp_path, capsys, flag, error):
        scene, out = bundle_tree / "scene_00000", tmp_path / "composed"
        with np.errstate(over="ignore"):
            assert main(["compose-points", "--bundle", str(scene), flag, "1e308", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"FAILED {scene}: {error}\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "flag,rc,error",
        [("--noise-coord", 1, "FAILED {}: ValueError: coord map contains non-finite entries\n"),
         ("--noise-scale", 1, "FAILED {}: ValueError: similarity scale must be finite and positive, got inf\n"),
         ("--noise-depth", 0, "")],
        ids=["coord", "scale", "depth"],
    )
    def test_overflowing_draw_does_not_warn(self, bundle_tree, tmp_path, capsys, flag, rc, error):
        """A mock draw past the float range is inf, judged by the map's own checks, with no RuntimeWarning."""
        scene = bundle_tree / "scene_00000"
        assert main(["compose-points", "--bundle", str(scene), flag, "1e308", "--out", str(tmp_path / "out")]) == rc
        assert capsys.readouterr().err == error.format(scene)


class TestComposePointsBytes:
    """Pinned sha256 of noisy `compose-points` outputs for both views of one scene."""

    SHA256 = "69250084ff49e1512ca72a75f98e466939e34137eab238ee5ce35601ffad8236"

    def test_outputs_sha256_pinned(self, bundle_tree, tmp_path, monkeypatch):
        monkeypatch.chdir(bundle_tree)  # the report echoes the --bundle path
        out = tmp_path / "composed"
        for view in ("0", "1"):
            rc = main(["compose-points", "--bundle", "scene_00002",
                       "--view", view, "--seed", "6", *TestReportBytes.NOISE,
                       "--out", str(out / f"view_{view}")])
            assert rc == 0
        assert len([p for p in out.rglob("*") if p.is_file()]) == 8
        assert tree_sha256(out) == self.SHA256


class TestZeroNoiseBytes:
    """Pinned sha256 of zero-noise `eval-pointmap`, `eval-pose` and `compose-points` outputs.

    At zero noise every head is the bundle's ground truth, so these bytes
    hold whatever random draws the mock makes.
    """

    SHA256 = "f95605248a2c903994b861c63f5d6fc0030ab3e84a5462dc3de1dab7feadeb8b"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_outputs_sha256_pinned(self, bundle_tree, tmp_path, monkeypatch, workers):
        monkeypatch.chdir(bundle_tree)  # compose-points echoes the --bundle path
        out = tmp_path / "out"
        out.mkdir()
        for command in ("eval-pointmap", "eval-pose"):
            rc = main([command, "--bundles", ".", "--seed", "4", "--workers", workers,
                       "--out", str(out / f"{command}.json")])
            assert rc == 0
        for view in ("0", "1"):
            rc = main(["compose-points", "--bundle", "scene_00002", "--view", view, "--seed", "6",
                       "--workers", workers, "--out", str(out / f"view_{view}")])
            assert rc == 0
        assert len([p for p in out.rglob("*") if p.is_file()]) == 10
        assert tree_sha256(out) == self.SHA256


class TestCheckGrads:
    def test_all_losses_under_tolerance(self, tmp_path):
        out = tmp_path / "grads.json"
        rc = main(["check-grads", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["worst"] < 1e-4
        assert set(report["max_relative_error"]) >= {
            "mask", "point", "relative_pose", "similarity", "keypoint",
        }


    def test_point_check_passes_at_a_large_step(self, tmp_path):
        # seed 1's point check used to keep a residual of 7e-5, which a step of 1e-4 crossed
        out = tmp_path / "grads.json"
        assert main(["check-grads", "--seed", "1", "--eps", "1e-4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["failures"] == []

    def test_error_at_tolerance_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_gradient", lambda name, seed, eps: 1.0)
        out = tmp_path / "grads.json"
        assert main(["check-grads", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["worst"] == 1.0
        assert {f["loss"] for f in report["failures"]} == set(report["max_relative_error"])
        assert "FAILED mask" in capsys.readouterr().err

    def test_nondifferentiable_recorded_as_failure(self, tmp_path, monkeypatch):
        real = cli.check_gradient

        def check(name, seed, eps):
            if name == "point":
                raise NonDifferentiableError("point is not differentiable at coordinate 0")
            return real(name, seed=seed, eps=eps)

        monkeypatch.setattr(cli, "check_gradient", check)
        out = tmp_path / "grads.json"
        assert main(["check-grads", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert [f["loss"] for f in report["failures"]] == ["point"]
        assert "NonDifferentiableError" in report["failures"][0]["error"]
        assert "point" not in report["max_relative_error"]
        assert report["worst"] < cli.GRADIENT_TOLERANCE

    def test_step_outside_a_loss_domain_recorded_as_failure(self, tmp_path, capsys):
        out = tmp_path / "grads.json"
        assert main(["check-grads", "--eps", "0.5", "--out", str(out)]) == 1
        failures = {f["loss"]: f["error"] for f in json.loads(out.read_text())["failures"]}
        assert failures["mask"] == "ValueError: robot mask has entries outside [0, 1]"
        assert "FAILED mask: ValueError: robot mask" in capsys.readouterr().err


class TestCheckGradsBytes:
    """Pinned sha256 of `check-grads` reports: the gradient checks' draws and errors, bit for bit."""

    SHA256 = {
        0: "f31ca601159926e8be5f59d8d1d078b6b9ec24187dee9729a538a097c9c7d39b",
        3: "e680e4fb1e14d0d2e0de92a9f482a73da1fd8059f82bf9c8985afc642ce0d142",
    }

    @pytest.mark.parametrize("seed", sorted(SHA256))
    def test_report_sha256_pinned(self, tmp_path, seed):
        out = tmp_path / "grads.json"
        assert main(["check-grads", "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[seed]


class TestConfigPrecedence:
    def test_config_file_overrides_flags(self, bundle_tree, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold_rel": 0.5}))
        out = tmp_path / "r.json"
        main([
            "eval-pose", "--bundles", str(bundle_tree), "--threshold-rel", "0.01",
            "--config", str(cfg), "--workers", "1", "--out", str(out),
        ])
        assert json.loads(out.read_text())["config"]["t_threshold_rel"] == 0.5

    def test_flags_override_defaults(self, bundle_tree, tmp_path):
        out = tmp_path / "r.json"
        main([
            "eval-pose", "--bundles", str(bundle_tree), "--threshold-rel", "0.11",
            "--workers", "1", "--out", str(out),
        ])
        assert json.loads(out.read_text())["config"]["t_threshold_rel"] == 0.11

    def test_unknown_config_key_rejected(self, bundle_tree, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_eval", _must_not_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = main(["eval-pose", "--bundles", str(bundle_tree), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"reconkit eval-pose: error: --config: {cfg}: unknown key 'bogus'\n"

    # command -> the keys its --config accepts
    CONFIG_KEYS = {
        "gen-scenes": {"seed", "workers", "scenes", "views", "width", "height"},
        **{command: {"seed", "workers", "threshold_rel", "threshold_abs", *cli.NOISE_FLAGS}
           for command in ("eval-pointmap", "eval-pose")},
        "solve-pnp": {"seed", "workers", "temperature"},
        "compose-points": {"seed", "workers", "threshold", *cli.NOISE_FLAGS},
        "check-grads": {"seed", "workers", "eps"},
    }
    TARGETS = {"eval-pointmap": ["--bundles", "x"], "eval-pose": ["--bundles", "x"],
               "solve-pnp": ["--bundle", "x"], "compose-points": ["--bundle", "x"]}

    @pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
    def test_config_key_set(self, tmp_path, capsys, monkeypatch, command):
        seen = {}
        for handler in ("cmd_gen_scenes", "cmd_eval", "cmd_solve_pnp", "cmd_compose_points", "cmd_check_grads"):
            monkeypatch.setattr(cli, handler, lambda args: seen.update(vars(args)) or 0)
        keys = self.CONFIG_KEYS[command]
        cfg = tmp_path / "cfg.json"
        argv = [command, *self.TARGETS.get(command, []), "--config", str(cfg)]
        # an integer suits int and float flags; main checks every value's range before any handler, and only a
        # real-valued flag's value must fit a finite float
        values = {key: {"threshold": 0.5, "views": 2, "noise_mask_flip": 0.5, "seed": 10**400}.get(key, 7)
                  for key in keys}
        cfg.write_text(json.dumps(values))
        assert main(argv) == 0
        assert {key: seen[key] for key in keys} == values
        others = set().union(*self.CONFIG_KEYS.values()) - keys
        for key in sorted(others | {"out", "bundle", "bundles", "view", "heatmap", "keypoints", "weights_file"}):
            cfg.write_text(json.dumps({key: 7}))
            assert main(argv) == 2
            assert capsys.readouterr().err.endswith(f"--config: {cfg}: unknown key '{key}'\n")

    # numeric flag -> a value of its type outside its range
    OUT_OF_RANGE = {"seed": -1, "workers": -1, "scenes": 0, "views": 3, "width": 0, "height": -4,
                    **dict.fromkeys(cli.NOISE_FLAGS, -0.5), "noise_mask_flip": 1.5, "threshold_rel": -0.03,
                    "threshold_abs": -0.01, "threshold": 1.5, "temperature": -0.05, "eps": -1e-06}

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command,key", [(c, k) for c, keys in sorted(CONFIG_KEYS.items()) for k in sorted(keys)])
    def test_every_numeric_value_checked_up_front(self, tmp_path, capsys, monkeypatch, command, key, given):
        """Every command's every numeric value, from a flag or --config, is checked before any handler runs."""
        for name in ("load_bundle", "run_eval", "run_gen_scenes", "check_gradient", "cmd_gen_scenes", "cmd_eval",
                     "cmd_solve_pnp", "cmd_compose_points", "cmd_check_grads"):
            monkeypatch.setattr(cli, name, _must_not_run)
        value, flag = self.OUT_OF_RANGE[key], "--" + key.replace("_", "-")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        given_as = [f"{flag}={value}"] if given == "flag" else ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main([command, *self.TARGETS.get(command, []), *given_as, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"reconkit {command}: error: {flag}: ") and f"got {value}" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize(
        "command,cfg,message",
        [
            ("eval-pose", [0.5], "must hold a JSON object, got list"),
            ("eval-pose", "x", "must hold a JSON object, got str"),
            ("compose-points", {"threshold": "0.5"}, "threshold: expected a number, got '0.5'"),
            ("eval-pose", {"threshold_rel": "x"}, "threshold_rel: expected a number, got 'x'"),
            ("eval-pointmap", {"seed": 1.5}, "seed: expected an integer, got 1.5"),
            ("eval-pointmap", {"workers": True}, "workers: expected an integer, got True"),
            ("eval-pose", {"noise_depth": False}, "noise_depth: expected a number, got False"),
            ("eval-pointmap", {"threshold_abs": [0.01]}, "threshold_abs: expected a number, got [0.01]"),
            ("compose-points", {"seed": None}, "seed: expected an integer, got None"),
            ("eval-pose", {"threshold_rel": float("nan")}, "threshold_rel must be finite, got nan"),
            # integers that no finite float holds
            pytest.param("eval-pose", {"threshold_rel": 10**400}, f"threshold_rel must be finite, got {10**400}",
                         id="threshold_rel-past-float-range"),
            pytest.param("eval-pointmap", {"noise_depth": 10**400}, f"noise_depth must be finite, got {10**400}",
                         id="noise_depth-past-float-range"),
        ],
    )
    def test_config_value_types_checked(self, bundle_tree, tmp_path, capsys, monkeypatch,
                                        command, cfg, message):
        monkeypatch.setattr(cli, "load_bundle", _must_not_run)
        monkeypatch.setattr(cli, "run_eval", _must_not_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        target = ["--bundle", str(bundle_tree / "scene_00000")] if command == "compose-points" \
            else ["--bundles", str(bundle_tree)]
        rc = main([command, *target, "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"reconkit {command}: error: --config: ") and message in err
        assert err.count("\n") == 1

    def test_no_setting_leaks_into_the_next_call(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_check_grads", lambda args: seen.append(vars(args)) or 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.001}))
        for argv in (["--config", str(cfg)], ["--seed", "4"], []):
            assert main(["check-grads", *argv]) == 0
        got = [(a["config"], a["eps"], a["seed"]) for a in seen]
        assert got == [(str(cfg), 0.001, 0), (None, 1e-6, 4), (None, 1e-6, 0)]
        assert cli.build_parser() is cli.build_parser()

    def test_config_ints_accepted_for_floats(self, bundle_tree, tmp_path):
        """An integer for a float flag is read as its flag's type: the report is the flags' byte for byte."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold_rel": 1, "seed": 3}))
        out, flags_out = tmp_path / "r.json", tmp_path / "flags.json"
        rc = main(["eval-pose", "--bundles", str(bundle_tree), "--config", str(cfg),
                   "--workers", "1", "--out", str(out)])
        assert rc == 0
        config = json.loads(out.read_text())["config"]
        assert (config["t_threshold_rel"], config["seed"]) == (1, 3)
        assert main(["eval-pose", "--bundles", str(bundle_tree), "--threshold-rel", "1", "--seed", "3",
                     "--workers", "1", "--out", str(flags_out)]) == 0
        assert out.read_bytes() == flags_out.read_bytes()
