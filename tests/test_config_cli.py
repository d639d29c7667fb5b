import json
import os
import time

import numpy as np
import pytest

from splitkit.cli import main
from splitkit.config import ExperimentConfig, hash_file, write_canonical_json
from splitkit.errors import ConfigError

MATRIX = [[-3, 0, 2], [1, 2, -3], [0, -1, 1]]


def base_config(**extra):
    d = {
        "map": {"matrix": MATRIX},
        "samples": [[0.0, 0.0, 0.0]],
        "k_max": 8,
        "k_plane": 60,
        "k_line": 80,
        "k_leaf": 8,
        "k_list": [1, 2],
        "n": 5,
        "epsilon": 0.03,
        "t": 0.03,
        "grid_n": 4,
        "seed": 3,
    }
    d.update(extra)
    return d


SHEAR = {"axis": 0, "center": [0.0, 0.5, 0.5], "radius": 0.2, "amplitude": 0.05}


def with_shear(**change):
    return base_config(map={"matrix": MATRIX, "shears": [{**SHEAR, **change}]})


class TestConfig:
    def test_canonical_roundtrip_bytes(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_canonical_json(path, base_config())
        original = path.read_bytes()
        cfg = ExperimentConfig.from_file(path)
        assert cfg.canonical_bytes() == original

    def test_config_hash_matches_file_rehash(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_canonical_json(path, base_config())
        cfg = ExperimentConfig.from_file(path)
        assert cfg.config_hash() == hash_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(base_config(typo_key=1))

    def test_missing_map_rejected(self):
        with pytest.raises(ConfigError, match="map"):
            ExperimentConfig.from_dict({"samples": [[0, 0, 0]]})

    def test_missing_samples_rejected(self):
        d = base_config()
        del d["samples"]
        with pytest.raises(ConfigError, match="samples"):
            ExperimentConfig.from_dict(d)

    def test_bad_matrix_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(map={"matrix": [[1, 0], [0, 1]]}))

    def test_bad_shear_rejected(self):
        m = {"matrix": MATRIX, "shears": [{"axis": 0, "center": [0, 0, 0]}]}
        with pytest.raises(ConfigError, match="shear"):
            ExperimentConfig.from_dict(base_config(map=m))

    def test_random_samples_seeded(self):
        cfg1 = ExperimentConfig.from_dict(base_config(random_samples=3))
        cfg2 = ExperimentConfig.from_dict(base_config(random_samples=3))
        for a, b in zip(cfg1.sample_points(), cfg2.sample_points()):
            assert np.allclose(a, b)


class TestCliExitCodes:
    def test_paper_example_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["paper-example", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0
        rep = json.loads(capsys.readouterr().out)
        r = rep["results"]
        assert r["det"] == 1 and r["trace"] == 0
        assert r["volume_dominated_but_not_bunched"] is True
        # the quoted two-decimal tuple does not match the computed spectrum,
        # and the report says so rather than papering over it
        assert r["quoted_eigenvalues_match"] == [False, False, False]
        assert (tmp_path / "paper_example.json").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_canonical_json(path, base_config(typo=1))
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_empty_k_list_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_canonical_json(path, base_config(k_list=[]))
        assert main(["surface", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "k_list" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["splitting", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        d = base_config(
            map={
                "matrix": MATRIX,
                "shears": [
                    {"axis": 0, "center": [0.0, 0.5, 0.5], "radius": 0.2, "amplitude": 0.05}
                ],
            },
            samples=[[0.3, 0.55, 0.42]],  # support-crossing orbit: no convergence
            k_plane=300,
            k_line=400,
        )
        path = tmp_path / "cfg.json"
        write_canonical_json(path, d)
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_excessive_amplitude_exits_2(self, tmp_path, capsys):
        d = base_config(
            map={
                "matrix": MATRIX,
                "shears": [
                    {"axis": 0, "center": [0.0, 0.5, 0.5], "radius": 0.45, "amplitude": 5.0}
                ],
            }
        )
        path = tmp_path / "cfg.json"
        write_canonical_json(path, d)
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "amplitude" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg_dict",
        [
            3,
            ["map"],
            base_config(map=5),
            base_config(map={"matrix": MATRIX, "shears": 5}),
            base_config(map={"matrix": MATRIX, "shears": [5]}),
            with_shear(center="ab"),
            with_shear(center=[0, 0.5]),
            with_shear(radius="x"),
            with_shear(amplitude="x"),
        ],
        ids=[
            "top-level-number",
            "top-level-list",
            "map-number",
            "shears-number",
            "shear-number",
            "center-string",
            "center-two-numbers",
            "radius-string",
            "amplitude-string",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, cfg_dict):
        path = tmp_path / "cfg.json"
        write_canonical_json(path, cfg_dict)
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("splitkit: ") and err.count("\n") == 1


class TestCliOutputs:
    def run_twice(self, tmp_path, command, cfg_dict, env=None):
        path = tmp_path / "cfg.json"
        write_canonical_json(path, cfg_dict)
        outs = []
        old = dict(os.environ)
        if env:
            os.environ.update(env)
        try:
            for name in ("o1", "o2"):
                out = tmp_path / name
                assert main([command, "--config", str(path), "--out", str(out)]) == 0
                outs.append(out)
        finally:
            os.environ.clear()
            os.environ.update(old)
        return outs

    def test_splitting_outputs_deterministic(self, tmp_path):
        o1, o2 = self.run_twice(tmp_path, "splitting", base_config(k_plane=500, k_line=700))
        assert (o1 / "splitting.csv").read_bytes() == (o2 / "splitting.csv").read_bytes()
        assert (o1 / "splitting.json").read_bytes() == (o2 / "splitting.json").read_bytes()
        assert (o1 / "timings.txt").exists()

    def test_splitting_csv_schema(self, tmp_path):
        (o1, _) = self.run_twice(tmp_path, "splitting", base_config(k_plane=500, k_line=700))
        header = (o1 / "splitting.csv").read_text().splitlines()[0]
        assert header == "x1,x2,x3,k,dyn_ratio,vol_ratio,bunch_ratio,angle_residual"

    def test_bracket_contact_synthetic_row(self, tmp_path, capsys):
        d = base_config(synthetic_field={"kind": "contact"}, samples=[[0.0, 0.0, 0.0]], k_max=6)
        path = tmp_path / "cfg.json"
        write_canonical_json(path, d)
        out = tmp_path / "o"
        assert main(["bracket", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "bracket.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,x3,k,h,c,lhs,rhs,quotient"
        origin_row = lines[1].split(",")
        assert origin_row[:4] == ["0.0", "0.0", "0.0", "0"]
        assert float(origin_row[5]) == pytest.approx(1.0, abs=1e-8)
        # the limit bracket norm carries its resolved flag; the coordinate
        # plane is involutive, so the limit bracket sits below its error bar
        (sample,) = json.loads((out / "bracket.json").read_bytes())["results"]["samples"]
        assert sample["limit_bracket_resolved"] is False

    def test_surface_and_uniqueness_reports(self, tmp_path):
        d = base_config()
        path = tmp_path / "cfg.json"
        write_canonical_json(path, d)
        out = tmp_path / "o"
        assert main(["surface", "--config", str(path), "--out", str(out)]) == 0
        surf = json.loads((out / "surface.json").read_bytes())
        assert "pushforward_identity" in surf["results"]
        assert surf["results"]["pushforward_identity"]["rel_err"] < 1e-4
        header = (out / "surface.csv").read_text().splitlines()[0]
        assert header == "t,s,x1,x2,x3,defect_angle"

        assert main(["uniqueness", "--config", str(path), "--out", str(out)]) == 0
        uniq = json.loads((out / "uniqueness.json").read_bytes())
        assert set(uniq["results"]) == {"hartman", "leaf"}
        assert uniq["results"]["hartman"]["bounded"] is True
        assert uniq["results"]["leaf"]["lipschitz"] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("command", ["splitting", "bracket", "surface", "uniqueness"])
    def test_report_hash_matches_config_file(self, tmp_path, capsys, command):
        d = base_config(k_plane=500, k_line=700)
        path = tmp_path / "cfg.json"
        write_canonical_json(path, d)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        written = (out / f"{command}.json").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == written
        rep = json.loads(written)
        assert rep["command"] == command
        assert rep["config_hash"] == hash_file(path)
        assert rep["tool_version"]

    def test_pushforward_identity_carries_load_flag(self, tmp_path):
        linear = base_config()
        perturbed = base_config(
            map={"matrix": MATRIX, "shears": [SHEAR]},
            samples=[[0.5, 0.75, 0.75]],
            k_plane=20,
            t=0.005,
            epsilon=0.015,
        )
        flags = []
        for name, d in (("linear", linear), ("perturbed", perturbed)):
            path = tmp_path / f"{name}.json"
            write_canonical_json(path, d)
            out = tmp_path / name
            assert main(["surface", "--config", str(path), "--out", str(out)]) == 0
            rep = json.loads((out / "surface.json").read_bytes())
            flags.append(rep["results"]["pushforward_identity"]["resolved"])
        # the linear frame is constant, so the transport carries no load; the
        # depth-20 perturbed frame's gradient puts ||J|| dt far above 0.5
        assert flags == [True, False]


class TestIdentityMapThroughCli:
    def test_identity_ratios_and_verdicts(self, tmp_path):
        d = base_config(
            map={"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            k_plane=5,
            k_line=5,
            k_max=6,
        )
        path = tmp_path / "cfg.json"
        write_canonical_json(path, d)
        out = tmp_path / "o"
        assert main(["splitting", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "splitting.json").read_bytes())
        v = rep["results"]["verdicts"]
        assert not v["dynamically_dominated"] and not v["volume_dominated"]
        rows = (out / "splitting.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert float(cells[4]) == pytest.approx(1.0, abs=1e-12)
            assert float(cells[5]) == pytest.approx(1.0, abs=1e-12)
            assert float(cells[6]) == pytest.approx(1.0, abs=1e-12)


class TestConfigNumericValidation:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("epsilon", -0.1),
            ("h", 0.0),
            ("step", -1e-3),
            ("n", 6),
            ("n", 2),
            ("k_max", 0),
            ("k_max", 1),
            ("k_list", []),
            ("k_list", ["x"]),
            ("samples", [["a", 0, 0]]),
            ("synthetic_field", "contact"),
            ("synthetic_field", {"kind": "constant", "a": "x"}),
            ("e0", [[1, 0, 0], [0, 1, 0]]),
        ],
    )
    def test_bad_numeric_rejected(self, key, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(**{key: value}))

    @pytest.mark.parametrize(
        "key",
        [
            "random_samples",
            "k_max",
            "k_plane",
            "k_line",
            "epsilon",
            "n",
            "h",
            "step",
            "t",
            "slice_x2",
            "grid_n",
            "delta",
            "k_leaf",
            "seed",
        ],
    )
    def test_non_numeric_scalar_names_its_key(self, key):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be a (int|float)"):
            ExperimentConfig.from_dict(base_config(**{key: "x"}))

    def test_even_patch_grid_rejected_in_library(self):
        from splitkit.frames import constant_frame
        from splitkit.surface import build_patch

        with pytest.raises(ValueError, match="odd"):
            build_patch(constant_frame(0.0, 0.0), np.zeros(3), 0.05, 8)
