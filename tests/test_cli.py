"""CLI subcommands: determinism, provenance, error propagation."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from reconkit import cli
from reconkit.cli import main
from reconkit.losses import NonDifferentiableError
from reconkit.oracle.bundle import random_scene_spec
from reconkit.oracle.raster import read_raster
from reconkit.pipeline import RunConfig


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

    def test_unwritable_path_errors(self):
        with pytest.raises(OSError):
            main(["gen-scenes", "--scenes", "1", "--out", "/proc/nope/x"])


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
        ("3", "160", "120"): "1924daa7b96af86c3de0d747ac2e88725fdc3148c0cf662cf3c8ed0e078780c5",
        ("1", "630", "476"): "ce15cb7b7a201fc2f0d0922c69264a35ee99cca617939717d5135f44bd09ba44",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("scenes,width,height", [("3", "160", "120"), ("1", "630", "476")])
    def test_tree_sha256_pinned(self, tmp_path, scenes, width, height, workers):
        out = tmp_path / "tree"
        rc = main(["gen-scenes", "--scenes", scenes, "--seed", "13", "--width", width,
                   "--height", height, "--workers", workers, "--out", str(out)])
        assert rc == 0
        assert tree_sha256(out) == self.SHA256[scenes, width, height]


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


class TestReportBytes:
    """Pinned sha256 of noisy eval reports over the 96x72 `bundle_tree`."""

    NOISE = [
        "--noise-depth", "0.002", "--noise-coord", "0.0005", "--noise-mask-flip", "0.05",
        "--noise-heatmap-blur", "0.5", "--noise-trans", "0.01", "--noise-rot", "0.005",
        "--noise-scale", "0.01",
    ]
    SHA256 = {
        "eval-pointmap": "c7614efcb6850e0b8e79152229bccb1ed9153c938e84083a6ed27370da7c6964",
        "eval-pose": "d416d8ec601f0c176c49c1379aff00f0f3649f96863f5435c3882f76ed38e344",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["eval-pointmap", "eval-pose"])
    def test_report_sha256_pinned(self, bundle_tree, tmp_path, command, workers):
        out = tmp_path / "report.json"
        rc = main([command, "--bundles", str(bundle_tree), "--seed", "4", *self.NOISE,
                   "--workers", workers, "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[command]


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
        meta = json.loads((bundle_tree / "scene_00000" / "meta.json").read_text())
        kp = meta["keypoints_2d"][1]
        kp_file = tmp_path / "kp.json"
        kp_file.write_text(json.dumps(kp))
        out = tmp_path / "pnp.json"
        rc = main([
            "solve-pnp", "--bundle", str(bundle_tree / "scene_00000"),
            "--view", "1", "--keypoints", str(kp_file), "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["error_vs_bundle"]["translation_m"] < 1e-6

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


class TestComposePointsBytes:
    """Pinned sha256 of noisy `compose-points` outputs for both views of one scene."""

    SHA256 = "073c559fd7f0e39f75398012c67ae72f621a865749d32847f0ac37e12a2ba428"

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

    def test_unknown_config_key_rejected(self, bundle_tree, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit, match="bogus"):
            main(["eval-pose", "--bundles", str(bundle_tree), "--config", str(cfg)])

    @pytest.mark.parametrize(
        "command,cfg,message",
        [
            ("eval-pose", [0.5], "must hold a JSON object, got list"),
            ("eval-pose", "x", "must hold a JSON object, got str"),
            ("compose-points", {"threshold": "0.5"}, 'threshold: expected a number, got "0.5"'),
            ("eval-pose", {"threshold_rel": "x"}, 'threshold_rel: expected a number, got "x"'),
            ("eval-pointmap", {"seed": 1.5}, "seed: expected an integer, got 1.5"),
            ("eval-pointmap", {"workers": True}, "workers: expected an integer, got true"),
            ("eval-pose", {"noise_depth": False}, "noise_depth: expected a number, got false"),
            ("eval-pose", {"weights_file": 3}, "weights_file: expected a string, got 3"),
            ("compose-points", {"seed": None}, "seed: expected an integer, got null"),
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

    def test_config_ints_accepted_for_floats(self, bundle_tree, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold_rel": 1, "seed": 3}))
        out = tmp_path / "r.json"
        rc = main(["eval-pose", "--bundles", str(bundle_tree), "--config", str(cfg),
                   "--workers", "1", "--out", str(out)])
        assert rc == 0
        config = json.loads(out.read_text())["config"]
        assert (config["t_threshold_rel"], config["seed"]) == (1, 3)

    def test_weights_file_loaded(self, bundle_tree, tmp_path):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"alpha": 2.0, "lambda1": 3.0}))
        out = tmp_path / "r.json"
        rc = main([
            "eval-pointmap", "--bundles", str(bundle_tree), "--weights-file",
            str(weights), "--workers", "1", "--out", str(out),
        ])
        assert rc == 0
        cfg = json.loads(out.read_text())["config"]
        assert cfg["weights"]["alpha"] == 2.0
        assert cfg["weights"]["lambda1"] == 3.0
