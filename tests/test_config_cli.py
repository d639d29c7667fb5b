import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import splitkit
from splitkit import splitting
from splitkit.cli import _slow_plane_normal, main
from splitkit.config import ExperimentConfig, canonical_json_bytes, hash_file
from splitkit.errors import ConfigError
from splitkit.geometry import line_angles
from splitkit.report import write_json
from conftest import counting_kernel

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
        write_json(path, base_config())
        original = path.read_bytes()
        cfg = ExperimentConfig.from_file(path)
        assert cfg.canonical_bytes() == original

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_canonical_bytes_refuse_non_finite(self, value):
        # NaN and the infinities have no JSON form: json.dumps would write
        # the tokens NaN and Infinity, which strict JSON readers reject
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json_bytes({"results": {"x": [1.0, value]}})

    def test_config_hash_matches_file_rehash(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_json(path, base_config())
        cfg = ExperimentConfig.from_file(path)
        assert cfg.config_hash() == hash_file(path)

    @pytest.mark.parametrize("name", ["linear.json", "perturbed.json"])
    def test_config_hash_is_hashlib_sha256(self, name):
        # the builtin digest the package imports instead of hashlib gives
        # hashlib's bytes on the shipped configs
        cfg = ExperimentConfig.from_file(Path(__file__).parents[1] / "configs" / name)
        assert cfg.config_hash() == hashlib.sha256(cfg.canonical_bytes()).hexdigest()

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

    def test_fields_refuse_assignment(self):
        cfg = ExperimentConfig.from_dict(base_config())
        with pytest.raises(AttributeError):
            cfg.k_max = 3
        assert cfg.k_max == 8

    def test_renamed_keys_fill_their_fields(self):
        basis = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        cfg = ExperimentConfig.from_dict(base_config(e0={"basis": basis}))
        assert cfg.map_spec == {"matrix": MATRIX}
        assert cfg.e0_basis == tuple(map(tuple, basis))
        with pytest.raises(ConfigError, match="unknown config keys: \\['map_spec'\\]"):
            ExperimentConfig.from_dict(base_config(map_spec={"matrix": MATRIX}))

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

    def test_paper_example_exits_3_when_sample_excluded(self, monkeypatch, capsys):
        # a tolerance below every residual (an angle sum, >= 0) excludes x = 0
        monkeypatch.setattr(splitting, "RESIDUAL_TOL", -1.0)
        assert main(["paper-example"]) == 3
        assert "non-convergence" in capsys.readouterr().err

    def test_paper_example_is_the_splitting_pass(self, tmp_path, capsys):
        # the same problem through `splitting` gives the same rates, verdicts
        # and k = 1 ratios, bit for bit
        path = tmp_path / "cfg.json"
        write_json(path, {"map": {"matrix": MATRIX}, "samples": [[0, 0, 0]], "k_max": 80, "k_plane": 500, "k_line": 800})
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        assert main(["paper-example", "--out", str(tmp_path / "pe")]) == 0
        split = json.loads((tmp_path / "s" / "splitting.json").read_text())["results"]
        pe = json.loads((tmp_path / "pe" / "paper_example.json").read_text())["results"]
        (sample,) = split["samples"]
        assert {key: sample[f"rate_{key}"] for key in ("dyn", "vol", "bunch")} == pe["per_step_rates"]
        assert split["verdicts"] == pe["verdicts"]
        with open(tmp_path / "s" / "splitting.csv", newline="") as fh:
            row_1 = next(csv.DictReader(fh))
        assert row_1["k"] == "1"
        ratios_1 = {f"{key}_1": float(row_1[key]) for key in ("dyn_ratio", "vol_ratio", "bunch_ratio")}
        assert ratios_1 == pe["flat_metric_k1"]

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_json(path, base_config(typo=1))
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_empty_k_list_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        write_json(path, base_config(k_list=[]))
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
        write_json(path, d)
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "non-convergence" in capsys.readouterr().err
        # the refusal comes before the first file, so no --out is made
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["splitting", "bracket"])
    def test_plane_containing_fast_line_exits_2(self, tmp_path, capsys, command):
        # linear.json with e0.basis = [E^uu of A, e1]: its pullback converges
        # to span(E^s, E^uu), which contains F and passes the residual test
        w, V = np.linalg.eig(np.array(MATRIX, dtype=float))
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "linear.json").read_text())
        cfg["e0"] = {"basis": [V[:, np.abs(w).argmax()].real.tolist(), [1.0, 0.0, 0.0]]}
        path = tmp_path / "cfg.json"
        write_json(path, cfg)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "'e0.basis'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, line",
        [
            ("surface", "patch k=2 left the chart at flow time 0.451; reduce epsilon"),
            ("uniqueness", "patch xy left the chart at flow time 0.45; reduce epsilon"),
        ],
        ids=["surface", "uniqueness"],
    )
    def test_patch_leaving_the_chart_exits_2(self, tmp_path, capsys, command, line):
        # linear.json at epsilon 0.5: the patches pass the 0.45 box around
        # their first seed, and the refusal comes before the first file
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "linear.json").read_text())
        cfg["epsilon"] = 0.5
        path = tmp_path / "cfg.json"
        write_json(path, cfg)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"splitkit: {line}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        write_json(path, d)
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "amplitude" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("amplitude, code", [(0.47, 2), (0.45, 0)])
    def test_amplitude_gate_is_exact(self, tmp_path, capsys, amplitude, code):
        # the worst one-step tilt of the linear plane over the shipped shear's
        # gradient disc is 0.511 rad at amplitude 0.47 and 0.487 at 0.45,
        # against a 0.5 rad cone
        path = tmp_path / "cfg.json"
        write_json(path, {**with_shear(amplitude=amplitude), "k_plane": 500, "k_line": 800})
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == code
        if code:
            assert "upper bound" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("amplitudes, code", [((0.05, 0.05), 0), ((0.3, 0.3), 2)])
    def test_amplitude_gate_bounds_composed_shears(self, tmp_path, amplitudes, code):
        # one shear of amplitude 0.3 passes alone; two in one step pass only
        # if the product bound of their tilts stays inside the cone
        shears = [{**SHEAR, "amplitude": a} for a in amplitudes]
        path = tmp_path / "cfg.json"
        cfg = base_config(map={"matrix": MATRIX, "shears": shears}, k_plane=500, k_line=800)
        write_json(path, cfg)
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == code

    def test_guard_normal_is_left_eigenvector(self):
        # the slow plane's normal spans an M^T-invariant line
        M = np.array(MATRIX, dtype=float)
        n = _slow_plane_normal(MATRIX)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
        assert line_angles((M.T @ n)[None], n[None])[0] < 1e-12

    def test_guard_needs_real_simple_dominant_eigenvalue(self, tmp_path, capsys):
        # x^3 + x + 1: a complex pair of modulus 1.21 dominates a real -0.68;
        # the identity's eigenvalue 1 is triple
        companion = [[0, 0, -1], [1, 0, -1], [0, 1, 0]]
        for n, matrix in enumerate([companion, np.eye(3, dtype=int).tolist()]):
            path, out = tmp_path / f"cfg{n}.json", tmp_path / f"o{n}"
            write_json(path, base_config(map={"matrix": matrix, "shears": [SHEAR]}))
            assert main(["splitting", "--config", str(path), "--out", str(out)]) == 2
            assert "not real and simple" in capsys.readouterr().err
            assert not out.exists()

    def test_negative_random_samples_rejected(self):
        with pytest.raises(ConfigError, match="'random_samples' must be >= 0"):
            ExperimentConfig.from_dict(base_config(random_samples=-1))

    @pytest.mark.parametrize("source", ["config", "--seed"])
    def test_negative_seed_with_random_samples_exits_2(self, tmp_path, capsys, source):
        path = tmp_path / "cfg.json"
        write_json(path, base_config(random_samples=2, seed=-1 if source == "config" else 3))
        argv = ["splitting", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv + (["--seed", "-1"] if source == "--seed" else [])) == 2
        assert "'seed' must be >= 0" in capsys.readouterr().err

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
            base_config(map={"matrix": MATRIX, "shear": [SHEAR]}),
            with_shear(axis=True),
            with_shear(amplitude="0.05"),
            with_shear(bogus=1),
            base_config(e0={"basis": [[1, 0, 0], [0, 1, 0]], "bogus": 1}),
            base_config(synthetic_field={"kind": "contact", "bogus": 1}),
            base_config(samples=[["0.5", 0.0, 0.0]]),
            base_config(samples=[[True, 0.0, 0.0]]),
            base_config(e0={"basis": [["1", 0, 0], [0, 1, 0]]}),
            base_config(e0={"basis": [[True, 0, 0], [0, 1, 0]]}),
            base_config(synthetic_field={"kind": "constant", "a": "0.5"}),
            base_config(synthetic_field={"kind": "constant", "a": True}),
            base_config(map={"matrix": [[-3, 0, 2], [True, 2, -3], [0, -1, True]]}),
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
            "map-shear-typo",
            "axis-bool",
            "amplitude-numeric-string",
            "shear-unknown-key",
            "e0-unknown-key",
            "synthetic-unknown-key",
            "sample-string",
            "sample-bool",
            "e0-basis-string",
            "e0-basis-bool",
            "synthetic-a-string",
            "synthetic-a-bool",
            "matrix-bool",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, cfg_dict):
        path = tmp_path / "cfg.json"
        write_json(path, cfg_dict)
        assert main(["splitting", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("splitkit: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "cfg_dict, message",
        [
            (base_config(h=float("nan")), "'h' must be finite"),
            (base_config(epsilon=float("inf")), "'epsilon' must be finite"),
            (base_config(step=float("nan")), "'step' must be finite"),
            (base_config(samples=[[float("nan"), 0.0, 0.0]]), "'samples' must hold finite"),
            (with_shear(amplitude=float("nan")), "'map.shears[0].amplitude' must be finite"),
            (base_config(k_max=10**400), "'k_max' must be finite"),
            (base_config(samples=[[10**400, 0.0, 0.0]]), "'samples' must be a list"),
            (with_shear(radius=10**400), "'map.shears[0].radius' must be finite"),
            (base_config(synthetic_field={"kind": "constant", "a": float("inf")}), "must be finite"),
            (base_config(e0={"basis": [[1, 0, 0], [2, 0, 0]]}), "'e0.basis' must span a plane"),
        ],
        ids=["h-nan", "epsilon-inf", "step-nan", "sample-nan", "amplitude-nan",
             "k_max-huge", "sample-huge", "radius-huge", "synthetic-inf", "e0-parallel"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, cfg_dict, message):
        # json reads the NaN and Infinity tokens that json.dumps emits by
        # default (write_json refuses them), and integers of any size
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_dict))
        assert main(["bracket", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_cli_import_loads_no_experiment_layer():
    # the splitting, bracket, surface and uniqueness layers load with their
    # subcommands
    layers = ("splitkit.splitting", "splitkit.bracket", "splitkit.surface", "splitkit.uniqueness")
    code = f"import sys, splitkit.cli; print([m for m in {layers!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(splitkit.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_serves_the_splitting_names_on_first_use():
    # ``import splitkit`` leaves ``splitting`` unloaded; the star import and
    # a named import of the report still work, and load it
    code = (
        "import sys, splitkit; before = 'splitkit.splitting' in sys.modules; "
        "from splitkit import *; from splitkit import DominationReport, domination_report; "
        "import splitkit.splitting as s; "
        "assert domination_report is s.domination_report and DominationReport is s.DominationReport; "
        "assert all(name in globals() for name in splitkit.__all__); "
        "missing = not hasattr(splitkit, 'no_such_name'); "
        "print(before, missing)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(splitkit.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("splitting", {"splitkit.splitting"}),
        ("surface", {"splitkit.frames", "splitkit.surface"}),
        ("bracket", {"splitkit.frames", "splitkit.bracket", "splitkit.splitting"}),
        ("uniqueness", {"splitkit.frames", "splitkit.surface", "splitkit.uniqueness"}),
        ("paper-example", {"splitkit.splitting"}),
        # the same on the shipped config with a shear (linear.json otherwise)
        ("splitting perturbed.json", {"splitkit.splitting"}),
        ("surface perturbed.json", {"splitkit.frames", "splitkit.surface"}),
        ("bracket perturbed.json", {"splitkit.frames", "splitkit.bracket", "splitkit.splitting"}),
        ("uniqueness perturbed.json", {"splitkit.frames", "splitkit.surface", "splitkit.uniqueness"}),
    ],
)
def test_subcommand_loads_only_its_layers(tmp_path, command, loaded):
    # a run imports the layers it reads and no others, nor ``dataclasses``
    # or OpenSSL's ``_hashlib`` (checked in a fresh interpreter: the test
    # process has both); ``surface`` and ``uniqueness`` read frames, whose
    # kernel is in ``dynamics``, so they never load ``splitting``
    layers = ("splitkit.splitting", "splitkit.frames", "splitkit.bracket", "splitkit.surface", "splitkit.uniqueness")
    layers += ("dataclasses", "_hashlib")
    command, _, config = command.partition(" ")
    argv = [command, "--out", str(tmp_path / "o")]
    if command != "paper-example":  # it reads no config
        argv += ["--config", str(Path(__file__).parents[1] / "configs" / (config or "linear.json"))]
    found = tmp_path / "modules.txt"
    code = (
        "import sys; from splitkit import cli; "
        f"assert cli.main({argv!r}) == 0; "
        f"open({str(found)!r}, 'w').write(repr(sorted(m for m in {layers!r} if m in sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(splitkit.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    assert found.read_text() == repr(sorted(loaded))


def non_json_values(value, path="report"):
    """The path of every value under a report that is not a dict with str
    keys, a list or a tuple, or a str, int, float (a numpy float64 is one),
    bool or None leaf."""
    if isinstance(value, dict):
        bad = [f"{path} key {k!r}" for k in value if not isinstance(k, str)]
        return bad + [p for k, v in value.items() for p in non_json_values(v, f"{path}[{k!r}]")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in non_json_values(v, f"{path}[{i}]")]
    if value is None or isinstance(value, (str, int, float, bool)):
        return []
    return [f"{path}: {type(value).__module__}.{type(value).__qualname__}"]


def test_every_report_holds_plain_json_values(tmp_path, monkeypatch, capsys):
    # reports nest the results as the commands return them, with no coercion
    # pass: a numpy bool, int or array in any results must not reach the
    # writer, on paper-example and every subcommand on both shipped configs
    from splitkit import cli

    written = []

    def checked(path, obj):
        assert non_json_values(obj) == [], path
        written.append(path.name)
        write_json(path, obj)

    monkeypatch.setattr(cli, "write_json", checked)
    assert main(["paper-example", "--out", str(tmp_path / "pe")]) == 0
    commands = ("splitting", "bracket", "surface", "uniqueness")
    for cfg in ("linear", "perturbed"):
        config = Path(__file__).parents[1] / "configs" / f"{cfg}.json"
        for command in commands:
            out = tmp_path / f"{command}-{cfg}"
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert written == ["paper_example.json"] + [f"{command}.json" for command in commands] * 2


class TestCliOutputs:
    def run_twice(self, tmp_path, command, cfg_dict, env=None):
        path = tmp_path / "cfg.json"
        write_json(path, cfg_dict)
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
        write_json(path, d)
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
        write_json(path, d)
        out = tmp_path / "o"
        assert main(["surface", "--config", str(path), "--out", str(out)]) == 0
        surf = json.loads((out / "surface.json").read_bytes())
        identity = surf["results"]["pushforward_identity"]
        assert [e["k"] for e in identity] == [1, 2] and all(e["rel_err"] < 1e-4 for e in identity)
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
        write_json(path, d)
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
            k_list=[2, 20],
            t=0.005,
            epsilon=0.015,
        )
        flags = []
        for name, d in (("linear", linear), ("perturbed", perturbed)):
            path = tmp_path / f"{name}.json"
            write_json(path, d)
            out = tmp_path / name
            assert main(["surface", "--config", str(path), "--out", str(out)]) == 0
            rep = json.loads((out / "surface.json").read_bytes())
            flags.append([(e["k"], e["resolved"]) for e in rep["results"]["pushforward_identity"]])
        # one entry per k_list depth: the linear frames are constant, so the
        # transport carries no load; the depth-20 perturbed frame's gradient
        # puts |grad(a)| dt far above 0.5, the depth-2 frame's does not
        assert flags == [[(1, True), (2, True)], [(2, True), (20, False)]]

    def test_stopped_transport_writes_null(self, tmp_path):
        # the depth-20 transports pass the load budget and are stopped: that
        # depth's identity and series entries have null numbers and are
        # flagged unresolved, and the report holds no NaN token
        d = base_config(
            map={"matrix": MATRIX, "shears": [SHEAR]},
            samples=[[0.5, 0.75, 0.75]],
            k_plane=20,
            k_list=[1, 20],
            t=0.005,
            epsilon=0.015,
        )
        path = tmp_path / "cfg.json"
        write_json(path, d)
        out = tmp_path / "o"
        assert main(["surface", "--config", str(path), "--out", str(out)]) == 0

        def no_constant(token):
            raise AssertionError(f"{token} in surface.json")

        rep = json.loads((out / "surface.json").read_bytes(), parse_constant=no_constant)["results"]
        (first_identity, deep_identity) = rep["pushforward_identity"]
        assert first_identity["k"] == 1 and first_identity["resolved"] is True
        assert all(isinstance(first_identity[key], float) for key in ("lhs", "rhs", "rel_err"))
        assert deep_identity == {"k": 20, "lhs": None, "rel_err": None, "resolved": False, "rhs": None}
        (first, deep) = rep["pushforward_series"]
        assert first["k"] == 1 and isinstance(first["value"], float) and first["resolved"] is True
        assert deep == {"k": 20, "value": None, "resolved": False}

    def test_surface_reads_the_limit_frame_only_for_tangency(self, tmp_path, monkeypatch):
        # the vertical-growth identity rides the series' step rows, so no
        # kernel call at the limit depth k_plane is made outside
        # tangency_report
        import splitkit.surface as surface

        calls = counting_kernel(monkeypatch)
        during = set()
        report = surface.tangency_report

        def tangency_report(*args):
            first = len(calls)
            rep = report(*args)
            during.update(range(first, len(calls)))
            return rep

        monkeypatch.setattr(surface, "tangency_report", tangency_report)
        cfg = base_config()
        path = tmp_path / "cfg.json"
        write_json(path, cfg)
        assert main(["surface", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        deep = {n for n, (_, depths) in enumerate(calls) if cfg["k_plane"] in depths}
        assert deep and deep <= during

    @pytest.mark.parametrize("n, used", [(5, 5), (21, 9)])
    def test_grid_caps_reported(self, tmp_path, n, used):
        # the leaf patches and coefficients.csv use at most 9 nodes a side,
        # and the reports say how many they used
        path = tmp_path / "cfg.json"
        write_json(path, base_config(n=n))
        out = tmp_path / "o"
        assert main(["surface", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "surface.json").read_bytes())["results"]["coefficient_grid_n"] == used
        assert len((out / "coefficients.csv").read_text().splitlines()) == 1 + 2 * used**2
        assert len((out / "surface.csv").read_text().splitlines()) == 1 + n**2
        assert main(["uniqueness", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "uniqueness.json").read_bytes())["results"]["leaf"]["n"] == used


class TestIdentityMapThroughCli:
    def test_identity_ratios_and_verdicts(self, tmp_path):
        d = base_config(
            map={"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            k_plane=5,
            k_line=5,
            k_max=6,
        )
        path = tmp_path / "cfg.json"
        write_json(path, d)
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
            ("seed", 1.7),
            ("k_max", 3.9),
            ("k_plane", True),
            ("k_line", "600"),
            ("epsilon", True),
            ("h", "1e-4"),
            ("k_list", [1, 2.5]),
            ("k_list", [1, False]),
            ("k_list", ["3"]),
            ("k_list", "12"),
        ],
    )
    def test_bad_numeric_rejected(self, key, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(**{key: value}))

    def test_integral_float_reads_as_int(self):
        cfg = ExperimentConfig.from_dict(base_config(k_max=20.0, k_list=[1.0, 2]))
        assert type(cfg.k_max) is int and cfg.k_max == 20
        assert cfg.k_list == (1, 2) and all(type(k) is int for k in cfg.k_list)

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
