import math

import numpy as np
import pytest

import spcm.cli as cli
from spcm.cli import (
    BlobSpec,
    default_centers,
    emit_csv,
    generate_blobs,
    ingest_csv,
    main,
)
from spcm.driver import SolverConfig
from spcm.initialization import FcmConfig


def write(path, text):
    path.write_text(text)
    return str(path)


class TestIngestCsv:
    def test_plain_rows(self, tmp_path):
        X = ingest_csv(write(tmp_path / "d.csv", "0,0\n1,1\n"))
        assert X.n_points == 2 and X.n_dims == 2
        np.testing.assert_array_equal(X.points, [[0.0, 0.0], [1.0, 1.0]])

    def test_header_skipped(self, tmp_path):
        X = ingest_csv(write(tmp_path / "d.csv", "x,y\n1,2\n3,4\n"))
        assert X.n_points == 2

    def test_ragged_row_names_location(self, tmp_path):
        with pytest.raises(ValueError, match="row 2"):
            ingest_csv(write(tmp_path / "d.csv", "1,2\n3,4\n5\n"))

    def test_non_numeric_cell_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="row 1"):
            ingest_csv(write(tmp_path / "d.csv", "1,2\n3,oops\n"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not finite"):
            ingest_csv(write(tmp_path / "d.csv", "1,2\n3,nan\n"))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(write(tmp_path / "d.csv", "x,y\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            ingest_csv(tmp_path / "absent.csv")

    def test_round_trip_full_precision(self, tmp_path, rng):
        pts = rng.normal(size=(17, 3))
        emit_csv(tmp_path / "out.csv", pts)
        back = ingest_csv(tmp_path / "out.csv")
        np.testing.assert_array_equal(back.points, pts)


class TestGenerateBlobs:
    def test_benchmark_counts(self):
        spec = BlobSpec(centers=default_centers(3), points_per_blob=50, sigma=0.1, noise_fraction=0.1)
        X, labels = generate_blobs(spec, seed=0)
        assert X.n_points == 165
        assert (labels == -1).sum() == 15
        assert sorted(set(labels.tolist())) == [-1, 0, 1, 2]

    def test_no_noise(self):
        spec = BlobSpec(centers=default_centers(3), points_per_blob=10, sigma=0.2, noise_fraction=0.0)
        X, labels = generate_blobs(spec, seed=3)
        assert X.n_points == 30
        assert (labels >= 0).all()

    def test_deterministic_per_seed(self):
        spec = BlobSpec(centers=default_centers(2), points_per_blob=20, sigma=0.1, noise_fraction=0.2)
        X1, l1 = generate_blobs(spec, seed=11)
        X2, l2 = generate_blobs(spec, seed=11)
        np.testing.assert_array_equal(X1.points, X2.points)
        np.testing.assert_array_equal(l1, l2)

    def test_unit_side_centers(self):
        c = default_centers(3)
        for i in range(3):
            assert np.linalg.norm(c[i] - c[(i + 1) % 3]) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_blob_parameters(self):
        with pytest.raises(ValueError):
            BlobSpec(centers=default_centers(2), sigma=0.0)
        with pytest.raises(ValueError):
            BlobSpec(centers=default_centers(2), noise_fraction=1.0)
        with pytest.raises(ValueError, match="sigma"):
            BlobSpec(centers=default_centers(2), sigma=math.inf)
        with pytest.raises(ValueError, match="centers"):
            BlobSpec(centers=[[math.inf, 0.0]])
        with pytest.raises(ValueError, match="at least one blob"):
            default_centers(0)


@pytest.fixture()
def dataset_csv(tmp_path):
    out = tmp_path / "data.csv"
    code = main(
        [
            "generate", "--blobs", "3", "--points-per-blob", "50", "--sigma", "0.1",
            "--noise", "0.1", "--seed", "10", "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestGenerateCommand:
    def test_writes_data_and_labels(self, dataset_csv):
        labels_path = dataset_csv.with_name("data.labels.csv")
        assert dataset_csv.exists() and labels_path.exists()
        labels = [int(v) for v in labels_path.read_text().split()]
        assert len(labels) == 165 and labels.count(-1) == 15

    def test_zero_blobs_is_a_config_error(self, tmp_path, capsys):
        assert main(["generate", "--blobs", "0", "--out", str(tmp_path / "d.csv")]) == 2
        assert "at least one blob" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            pytest.param(["--sigma", "inf"], "sigma must be positive and finite", id="sigma-inf"),
            pytest.param(["--centers", "1e308:0;-1e308:0"], "noise box", id="huge-centers"),
            pytest.param(["--sigma", "1e308"], "non-finite point", id="huge-sigma"),
            pytest.param(["--sigma", "1e308", "--noise", "0"], "non-finite point", id="huge-sigma-no-noise"),
        ],
    )
    def test_non_finite_blobs_are_a_config_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "g.csv"
        assert main(["generate", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["generate", "--seed", "4", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


def flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def run_argv(options: dict[str, str], key: str, source: str, cfg_path) -> list[str]:
    """``run`` arguments giving option ``key`` from ``source`` ("flag" or
    "config") and every other option as a flag; "true" is a bare switch."""
    argv = ["run"]
    for k, v in options.items():
        if k != key or source == "flag":
            argv += [flag(k)] + ([] if v == "true" else [v])
    if source == "config":
        cfg_path.write_text(f"{key} = {options[key]}\n")
        argv += ["--config", str(cfg_path)]
    return argv


# One non-default value per run option, as the command line spells it.
RUN_OPTION_VALUES = [
    ("input", None),
    ("out_dir", None),
    ("algorithm", "pcm2"),
    ("clusters", "4"),
    ("p", "0.4"),
    ("K", "0.7"),
    ("theta_tol", "1e-8"),
    ("max_iters", "3"),
    ("dedup", "0.05"),
    ("seed", "3"),
    ("trace", "true"),
    ("plot_data", "true"),
]

# Values each run option must reject, non-finite ones aside.
RUN_OPTION_INVALID = [
    ("algorithm", "kmeans"),
    ("clusters", "0"),
    ("clusters", "three"),
    ("p", "1.5"),
    ("K", "-1"),
    ("K", "2.0"),  # past the radius-positivity bound at p = 0.5
    ("max_iters", "0"),
    ("dedup", "far"),
    ("dedup", "-1"),
    ("seed", "x"),
    ("seed", "-1"),
]


@pytest.mark.parametrize(
    "config, field, key",
    [
        (SolverConfig, "theta_tol", "theta_tol"),
        (SolverConfig, "dedup_threshold", "dedup"),
        (FcmConfig, "tol", None),  # no CLI option sets the FCM tolerances
        (FcmConfig, "fuzzifier", None),
        (FcmConfig, "seed", "seed"),
    ],
    ids=["theta_tol", "dedup_threshold", "fcm.tol", "fcm.fuzzifier", "fcm.seed"],
)
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_settings_rejected(config, field, key, value, dataset_csv, tmp_path, capsys):
    with pytest.raises(ValueError, match="finite"):
        config(**{field: float(value)})
    if key is None:
        return
    options = {"input": str(dataset_csv), "out_dir": str(tmp_path / "o"), "clusters": "3", key: value}
    for source in ("flag", "config"):
        assert main(run_argv(options, key, source, tmp_path / "run.cfg")) == 2
        assert flag(key) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, field, value",
    [(SolverConfig, "max_iters", 2.5), (FcmConfig, "max_iters", 2.5), (FcmConfig, "seed", 1.5)],
    ids=["max_iters", "fcm.max_iters", "fcm.seed"],
)
def test_non_integral_counts_rejected(config, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        config(**{field: value})
    assert getattr(config(**{field: np.int64(3)}), field) == 3


class TestRunCommand:
    @pytest.mark.parametrize("key, value", RUN_OPTION_VALUES)
    def test_flag_and_config_key_agree(self, key, value, dataset_csv, tmp_path, monkeypatch):
        configs = []
        for name in ("run", "run_pcm2"):
            solve = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda X, m, config, solve=solve: configs.append(config) or solve(X, m, config)
            )
        outs = []
        for source in ("flag", "config"):
            out = tmp_path / source
            options = {"input": str(dataset_csv), "out_dir": str(out), "clusters": "3"}
            if value is not None:
                options[key] = value
            assert main(run_argv(options, key, source, tmp_path / "run.cfg")) == 0
            outs.append(out)
        assert len(configs) == 2 and configs[0] == configs[1]
        names = sorted(f.name for f in outs[0].iterdir())
        assert "summary.txt" in names and names == sorted(f.name for f in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value", RUN_OPTION_INVALID)
    def test_invalid_value_names_the_option(self, key, value, source, dataset_csv, tmp_path, capsys):
        options = {"input": str(dataset_csv), "out_dir": str(tmp_path / "o"), "clusters": "3", key: value}
        assert main(run_argv(options, key, source, tmp_path / "run.cfg")) == 2
        assert flag(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_end_to_end_spcm(self, dataset_csv, tmp_path):
        out = tmp_path / "run1"
        code = main(
            [
                "run", "--input", str(dataset_csv), "--out-dir", str(out),
                "--clusters", "4", "--K", "0.9", "--seed", "0", "--trace", "--plot-data",
            ]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "termination: converged" in summary
        assert "clusters-retained: 3" in summary
        assert "valley-sample-counts: [1000.0, 1000.0, 1000.0, 1000.0]" in summary
        margins = summary.split("pd-margin: ")[1].split("\n")[0]
        assert all(float(v) > 0 for v in margins.strip("[]").split(","))
        memberships = np.loadtxt(out / "memberships.csv", delimiter=",")
        assert memberships.shape[1] == 3
        trace = (out / "trace.csv").read_text().strip().splitlines()
        n_iter = int(summary.split("iterations: ")[1].split("\n")[0])
        assert len(trace) - 1 == n_iter
        costs = [float(line.split(",")[1]) for line in trace[1:]]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert (out / "cost_vs_iteration.csv").exists()
        assert (out / "theta_trajectory.csv").exists()

    def test_deterministic_outputs(self, dataset_csv, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(
                [
                    "run", "--input", str(dataset_csv), "--out-dir", str(out),
                    "--clusters", "3", "--seed", "7", "--trace",
                ]
            )
            assert code == 0
            outs.append(out)
        for fname in ("summary.txt", "memberships.csv", "trace.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_radius_bound_rejected_at_parse_time(self, dataset_csv, tmp_path, capsys):
        code = main(
            [
                "run", "--input", str(dataset_csv), "--out-dir", str(tmp_path / "x"),
                "--clusters", "3", "--K", "1.5",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "radius-positivity" in err and "1.5" in err

    def test_pcm2_memberships_all_positive(self, dataset_csv, tmp_path):
        out = tmp_path / "p2"
        code = main(
            [
                "run", "--algorithm", "pcm2", "--input", str(dataset_csv),
                "--out-dir", str(out), "--clusters", "3", "--seed", "0",
            ]
        )
        assert code == 0
        memberships = np.loadtxt(out / "memberships.csv", delimiter=",")
        assert (memberships > 0).all()

    def test_fcm_only(self, dataset_csv, tmp_path):
        out = tmp_path / "f"
        code = main(
            ["run", "--algorithm", "fcm", "--input", str(dataset_csv),
             "--out-dir", str(out), "--clusters", "3"]
        )
        assert code == 0
        memberships = np.loadtxt(out / "memberships.csv", delimiter=",")
        np.testing.assert_allclose(memberships.sum(axis=1), 1.0, atol=1e-9)

    def test_runtime_violation_exit_code(self, dataset_csv, tmp_path, capsys):
        bad_K = (1 - 1e-9) * 0.5 * math.e  # passes parse, starves a cluster
        code = main(
            [
                "run", "--input", str(dataset_csv), "--out-dir", str(tmp_path / "v"),
                "--clusters", "3", "--K", repr(bad_K),
            ]
        )
        assert code == 3
        assert "active points" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["spcm", "pcm2", "fcm"])
    def test_failed_run_leaves_no_output_directory(self, algorithm, tmp_path, capsys):
        data = write(tmp_path / "three.csv", "0,0\n1,0\n0,1\n")
        out = tmp_path / "o"
        argv = ["run", "--algorithm", algorithm, "--input", data, "--out-dir", str(out), "--clusters", "5"]
        assert main(argv) == 2
        assert "1 <= m <= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = main(
            ["run", "--input", str(tmp_path / "none.csv"), "--out-dir", str(tmp_path),
             "--clusters", "3"]
        )
        assert code == 4

    def test_iteration_cap_warns_but_succeeds(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "cap"
        code = main(
            [
                "run", "--input", str(dataset_csv), "--out-dir", str(out),
                "--clusters", "3", "--max-iters", "2", "--theta-tol", "1e-14",
            ]
        )
        assert code == 0
        assert "iteration cap" in capsys.readouterr().err
        assert "termination: iteration-cap" in (out / "summary.txt").read_text()

    def test_config_file_with_flag_override(self, dataset_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {dataset_csv}\nclusters = 3\nK = 0.5\nseed = 2\n# comment\n"
        )
        out = tmp_path / "cfg-run"
        code = main(["run", "--config", str(cfg), "--out-dir", str(out), "--K", "0.9"])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "K: 0.9" in summary  # flag wins
        assert "seed: 2" in summary  # config survives

    def test_unknown_config_key(self, dataset_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for line in ("inputs = nope", "bisection_iters = 30"):  # the second is a removed option
            cfg.write_text(line + "\n")
            assert main(["run", "--config", str(cfg), "--clusters", "3"]) == 2
            assert "unknown config key" in capsys.readouterr().err

    def test_clusters_required(self, dataset_csv, tmp_path):
        assert main(["run", "--input", str(dataset_csv), "--out-dir", str(tmp_path)]) == 2


class TestValidateParamsCommand:
    def test_prints_bounds(self, dataset_csv, capsys):
        code = main(
            ["validate-params", "--input", str(dataset_csv), "--clusters", "3", "--K", "0.9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "radius-bound" in out and "activation-bound" in out
        assert "warnings: none" in out

    def test_rejects_bad_K(self, dataset_csv, capsys):
        code = main(
            ["validate-params", "--input", str(dataset_csv), "--clusters", "3", "--K", "2.0"]
        )
        assert code == 2
        assert "radius-positivity" in capsys.readouterr().err
