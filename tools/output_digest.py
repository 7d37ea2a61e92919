#!/usr/bin/env python3
"""SHA-256 digests of everything the package outputs on a fixed set of cases.

Prints one JSON object mapping each case to a map from output field to the
SHA-256 of its exact bits: every field of the ``RunResult`` (state,
memberships, dedup, termination), of its ``InitReport``, of the per-iteration
trace (one digest per ``IterationTrace`` field over all iterations), of
``fcm_start``'s four arrays, and of each file ``spcm run --trace`` writes.
A field the constructor does not take is derived from the others, so it is
left out.
Two versions of the package give the same output bits exactly when their
digests agree, so run the script once per version, each in its own process,
and compare:

    python3 tools/output_digest.py --src /path/to/old/src > old.json
    python3 tools/output_digest.py > new.json      # this checkout's src/
    python3 tools/output_digest.py --compare old.json new.json

With ``--values`` the script prints the values themselves in place of their
digests (arrays as base64 of their bytes, so they load back bit for bit),
and ``--compare`` on two such files checks the numerical contract as well:
it lists the fields whose bits differ and, apart, every field outside the
contract, and exits 1 only for the latter.  The contract (:func:`agree`):
integers, booleans, None, array dtypes and shapes, exception types and the
non-numeric text of each line match exactly; so does every numeric token of
a text (CSV cells, ``summary.txt``, stdout, stderr, exception messages)
that parses as an integer; floats, float arrays and the other numeric
tokens agree to a relative ``RTOL``, which keeps each exact zero, so each
membership column's active set, and each sign; a coordinate or a residual
(``SCALED``) takes that bound against at least the data's unit scale.

The cases are the benchmark's draws (``perfbench/inputs.py``, seed 10): three
``fit-large`` inputs (3 x 30,000 points) run with m = 3, the first also with
``run_pcm2`` and with p = 0.9, and five ``cli-audit`` inputs (3 x 600
points), each run with m = 3, m = 4, ``run_pcm2`` and p = 0.9 and through
the CLI; plus one 3-d and one 16-d blob set from ``spcm.cli.generate_blobs``.
The ``cli/...`` cases run every other CLI output on the first ``cli-audit``
input: ``run --trace --plot-data``, ``--algorithm pcm2`` and ``fcm``,
``validate-params``, ``generate`` with default and with explicit flags, and
the exit code and stderr of each error path (missing input, K past the
radius bound, a starved cluster, an unknown config key, a flag or config
key that the command would ignore) and of the iteration-cap warning; each
gets its exit code, stdout, stderr (the temporary directory written
``<tmp>``) and every file it writes.  Every library run but the ``fit-large`` ones, where the
monitor would add seconds and hundreds of megabytes per case, also gets a
``<case>/monitor`` entry: each field of ``check_fixed_point``'s report at
default settings.  The ``cli-audit`` m = 3 runs get a
``<case>/monitor-narrow`` entry too, whose small valley radius admits a
fraction of the sampled candidates.  A run that raises is recorded by its
exception.  Only the public API is used, so the script runs against any
version of the package.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 10


def _leaf_bytes(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, float):  # numpy float64 scalars included
        return float(value).hex().encode()
    if isinstance(value, np.generic):
        return repr(value.item()).encode()
    return repr(value).encode()


def _flatten(value, path: str, out: dict[str, list]) -> None:
    """Append every leaf under ``path`` to ``out``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # a field the constructor does not take is derived from those it does
        for f in dataclasses.fields(value):
            if f.init:
                _flatten(getattr(value, f.name), f"{path}.{f.name}", out)
    elif isinstance(value, dict):
        for key in sorted(value, key=repr):
            _flatten(value[key], f"{path}[{key!r}]", out)
    elif isinstance(value, (tuple, list)) and any(isinstance(v, (np.ndarray, tuple, list)) for v in value):
        for i, v in enumerate(value):
            _flatten(v, f"{path}[{i}]", out)
    else:
        out.setdefault(path, []).append(value)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The parts of one case map each field to its leaves, or to a text: an exit
# code, a stream, a file or an exception.


def digests(parts: dict[str, list | str]) -> dict[str, str]:
    """The SHA-256 of each field: of a text's UTF-8 bytes, or of its leaves' bytes."""
    return {
        path: _sha(v.encode() if isinstance(v, str) else b"\0".join(map(_leaf_bytes, v)))
        for path, v in sorted(parts.items())
    }


def _leaf_value(value):
    """A JSON form of one leaf that loads back to the same bits."""
    if isinstance(value, np.ndarray):
        data = base64.b64encode(np.ascontiguousarray(value).tobytes()).decode()
        return {"dtype": value.dtype.str, "shape": list(value.shape), "data": data}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [_leaf_value(v) for v in value]
    return value


def values(parts: dict[str, list | str]) -> dict[str, list | str]:
    """The value of each field in JSON form: a text as it is, leaves by :func:`_leaf_value`."""
    return {path: v if isinstance(v, str) else _leaf_value(v) for path, v in sorted(parts.items())}


def result_parts(result) -> dict[str, list]:
    """Every field of a ``RunResult``; the trace one per record field over all records."""
    parts: dict[str, list] = {}
    for f in dataclasses.fields(result):
        if f.name != "trace":
            _flatten(getattr(result, f.name), f.name, parts)
    for record in result.trace:
        for f in dataclasses.fields(record):
            _flatten(getattr(record, f.name), f"trace.{f.name}", parts)
    return parts


def field_parts(value) -> dict[str, list]:
    """Every field of a dataclass such as a ``FixedPointReport``."""
    parts: dict[str, list] = {}
    for f in dataclasses.fields(value):
        _flatten(getattr(value, f.name), f.name, parts)
    return parts


def _error_parts(exc: Exception) -> dict[str, str]:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _guarded(fn) -> dict:
    try:
        return fn()
    except Exception as exc:  # a raising run is an output too
        return _error_parts(exc)


def collect(encode) -> dict[str, dict]:
    """Every case's fields, each case's parts passed through ``encode``
    (:func:`digests` or :func:`values`) as soon as it is run."""
    spcm = importlib.import_module("spcm")
    cli = importlib.import_module("spcm.cli")
    sys.path.insert(0, str(ROOT / "perfbench"))
    inputs = importlib.import_module("inputs")

    def monitor_case(name: str, X, result, **settings) -> None:
        cases[name] = encode(_guarded(lambda: field_parts(
            spcm.check_fixed_point(X, result.state, result.membership, spcm.MonitorSettings(**settings))
        )))

    def library_cases(name: str, X, m: int, algorithm: str = "run", monitor: bool = True, **config):
        solver = getattr(spcm, algorithm)
        try:
            result = solver(X, m, spcm.SolverConfig(**config))
        except Exception as exc:  # a raising run is an output too
            cases[name] = encode(_error_parts(exc))
            return None
        cases[name] = encode(result_parts(result))
        if monitor:
            monitor_case(f"{name}/monitor", X, result)
        return result

    def fcm_case(name: str, X, m: int) -> None:
        def parts():
            out: dict[str, list] = {}
            for key, value in zip(("theta0", "u_fcm", "gammas", "mu"), spcm.fcm_start(X, m)):
                _flatten(value, key, out)
            return out

        cases[name] = encode(_guarded(parts))

    cases: dict[str, dict] = {}
    for k in range(3):
        X = spcm.DataSet(inputs.make_blobs(inputs.triangle_centers(), 30_000, [SEED, k]).points)
        library_cases(f"fit-large/{k}/m3", X, 3, monitor=False, p=0.5, K=0.9)
        fcm_case(f"fit-large/{k}/fcm_start", X, 3)
        if k == 0:
            library_cases(f"fit-large/{k}/pcm2", X, 3, "run_pcm2", monitor=False, p=0.5)
            library_cases(f"fit-large/{k}/p0.9", X, 3, monitor=False, p=0.9)
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(5):
            points = inputs.make_blobs(inputs.triangle_centers(), 600, [SEED, k]).points
            X = spcm.DataSet(points)
            result = library_cases(f"cli-audit/{k}/m3", X, 3, p=0.5, K=0.9)
            if result is not None:
                # a narrow valley admits a fraction of each round: later rounds and passes run
                monitor_case(f"cli-audit/{k}/m3/monitor-narrow", X, result, epsilon_factor=0.005, perturb_scale=1.0)
            library_cases(f"cli-audit/{k}/m4", X, 4, p=0.5, K=0.9)
            library_cases(f"cli-audit/{k}/pcm2", X, 3, "run_pcm2", p=0.5)
            library_cases(f"cli-audit/{k}/p0.9", X, 3, p=0.9)
            fcm_case(f"cli-audit/{k}/fcm_start", X, 3)
            csv_path, out_dir = Path(tmp) / f"in{k}.csv", Path(tmp) / f"out{k}"
            inputs.write_csv(csv_path, points)
            code = cli.main(["run", "--input", str(csv_path), "--out-dir", str(out_dir), "--clusters", "3",
                             "--p", "0.5", "--K", "0.9", "--trace"])
            files = {"exit": str(code)}
            for path in sorted(out_dir.iterdir()):
                files[path.name] = path.read_bytes().decode()
            cases[f"cli-audit/{k}/cli"] = encode(files)
        for name, parts in cli_cases(cli, Path(tmp), Path(tmp) / "in0.csv").items():
            cases[name] = encode(parts)
    for dims in (3, 16):
        centers = np.eye(dims)[:3]
        X, _ = cli.generate_blobs(cli.BlobSpec(centers=centers, points_per_blob=200), seed=SEED)
        library_cases(f"blobs-{dims}d/m3", X, 3, p=0.5, K=0.9)
        fcm_case(f"blobs-{dims}d/fcm_start", X, 3)
    return cases


def cli_output(cli, argv: list[str], tmp: Path, out_dir: Path | None = None) -> dict[str, str]:
    """The texts of ``cli.main(argv)``: exit code, stdout, stderr, files under ``out_dir``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    fields = {"exit": str(code)}
    for name, stream in (("stdout", stdout), ("stderr", stderr)):
        fields[name] = stream.getvalue().replace(str(tmp), "<tmp>")
    if out_dir is not None and out_dir.exists():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            fields[path.relative_to(out_dir).as_posix()] = path.read_bytes().decode()
    return fields


def cli_cases(cli, tmp: Path, data: Path) -> dict[str, dict[str, str]]:
    """Every CLI subcommand and error path on the input CSV ``data``."""
    cases = {}
    run = ["run", "--input", str(data), "--clusters", "3"]
    runs = {
        "run-trace-plot": ["--p", "0.5", "--K", "0.9", "--trace", "--plot-data"],
        "run-pcm2": ["--algorithm", "pcm2", "--seed", "3", "--trace", "--plot-data"],
        "run-fcm": ["--algorithm", "fcm", "--seed", "3"],
        "run-fcm-trace-plot": ["--algorithm", "fcm", "--trace", "--plot-data"],
        "run-fcm-solver-flags": ["--algorithm", "fcm", "--p", "0.3", "--K", "0.7", "--theta-tol", "1e-8",
                                 "--max-iters", "3", "--dedup", "0.5"],
        "run-pcm2-K": ["--algorithm", "pcm2", "--K", "0.7"],
        # K past the activation bound at m = 5, yet every cluster keeps a point
        "run-warnings": ["--clusters", "5", "--p", "0.3", "--K", "1.2161955273834157", "--dedup", "0.05"],
        "missing-input": ["--input", str(tmp / "absent.csv")],
        "K-past-bound": ["--K", "2.0"],
        "starved-cluster": ["--K", repr((1 - 1e-9) * 0.5 * math.e)],
        "iteration-cap": ["--max-iters", "2", "--theta-tol", "1e-14"],
    }
    for name, extra in runs.items():
        out = tmp / name
        cases[f"cli/{name}"] = cli_output(cli, [*run, "--out-dir", str(out), *extra], tmp, out)
    config = tmp / "unknown.cfg"
    config.write_text("inputs = nope\n")
    cases["cli/unknown-config-key"] = cli_output(cli, [*run, "--config", str(config)], tmp)
    config = tmp / "pcm2-K.cfg"
    config.write_text("K = 0.7\n")
    out = tmp / "run-pcm2-K-config"
    cases["cli/run-pcm2-K-config"] = cli_output(
        cli, [*run, "--algorithm", "pcm2", "--out-dir", str(out), "--config", str(config)], tmp, out
    )
    validate = ["validate-params", "--input", str(data), "--clusters", "3"]
    for name, extra in {"default": [], "K0.9": ["--K", "0.9"], "p0.3-seed2": ["--p", "0.3", "--seed", "2"],
                        "warnings": ["--K", "1.3591"], "K-past-bound": ["--K", "2.0"]}.items():
        cases[f"cli/validate-params/{name}"] = cli_output(cli, [*validate, *extra], tmp)
    generates = {
        "default": ["--out", "data.csv"],
        "defaults-spelled": ["--blobs", "3", "--points-per-blob", "50", "--sigma", "0.1", "--noise", "0.1",
                             "--seed", "0", "--out", "data.csv"],
        "explicit": ["--blobs", "4", "--points-per-blob", "30", "--sigma", "0.2", "--noise", "0.25",
                     "--seed", "5", "--out", "data.txt"],
        "centers": ["--centers", "0:0;2:1;-1:3", "--points-per-blob", "7", "--out", "sub/pts.csv"],
        "centers-and-blobs": ["--centers", "0:0;1:1", "--blobs", "5", "--out", "data.csv"],
        "no-noise": ["--noise", "0", "--seed", "9", "--out", "data.csv"],
    }
    for name, argv in generates.items():
        out = tmp / "generate" / name
        argv = [*argv[:-1], str(out / argv[-1])]
        cases[f"cli/generate/{name}"] = cli_output(cli, ["generate", *argv], tmp, out)
    return cases


# The numerical contract.  Two floats agree to a relative RTOL; a
# coordinate, or a residual (a small difference of terms of the data's
# scale), whose name SCALED matches takes that bound against at least 1,
# the data's scale in every case here.  README ("Output digests") gives how
# both were set from one-ulp changes of the inputs.
RTOL = 1e-10
SCALED = re.compile(r"theta|representatives|grad_norm|gradient-residual")
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
_INTEGER = re.compile(r"[-+]?\d+")


def _close(a, b, name: str) -> np.ndarray:
    """Where floats ``a`` and ``b`` of field ``name`` agree: equal (an
    infinity or NaN only to itself), or finite and within RTOL of the larger
    magnitude, or of 1 for a SCALED name."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    floor = 1.0 if SCALED.search(name) else 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        near = np.abs(a - b) <= RTOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return (a == b) | (np.isnan(a) & np.isnan(b)) | (np.isfinite(a) & np.isfinite(b) & near)


def _array(leaf: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(leaf["data"]), dtype=leaf["dtype"]).reshape(leaf["shape"])


def _texts_agree(a: str, b: str, name: str) -> str | None:
    """Lines match once every number is masked, and the numbers agree: an
    integer exactly, any other by :func:`_close` under the name of its CSV
    column, or of its line's key (the text before ':') after the key of the
    section that the line is indented under."""
    lines_a, lines_b = a.split("\n"), b.split("\n")
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} lines against {len(lines_b)}"
    csv = name.endswith(".csv")
    header = lines_a[0].split(",") if csv else []
    section = ""
    for n, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if _NUMBER.sub("#", la) != _NUMBER.sub("#", lb):
            return f"line {n}: {la!r} against {lb!r}"
        key = la.split(":")[0].strip()
        if not la.startswith(" "):
            section = key
        cells = zip(la.split(","), lb.split(","), header) if csv else [(la, lb, f"{section} {key}")]
        for ca, cb, column in cells:
            for x, y in zip(_NUMBER.findall(ca), _NUMBER.findall(cb)):
                exact = _INTEGER.fullmatch(x) or _INTEGER.fullmatch(y)
                if not (x == y if exact else _close(float(x), float(y), f"{name} {column}")):
                    return f"line {n}: {x} against {y}"
    return None


def agree(a, b, name: str) -> str | None:
    """Why two values of field ``name`` (as :func:`values` writes them)
    break the contract, or None when they keep it."""
    if isinstance(a, str) and isinstance(b, str):
        return _texts_agree(a, b, name)
    if isinstance(a, dict) and isinstance(b, dict):
        x, y = _array(a), _array(b)
        if x.dtype != y.dtype or x.shape != y.shape:
            return f"{x.dtype}{x.shape} against {y.dtype}{y.shape}"
        ok = _close(x, y, name) if x.dtype.kind == "f" else x == y
        bad = np.argwhere(~ok)
        if bad.size:
            i = tuple(bad[0])
            return f"{len(bad)} entries, first at {list(map(int, i))}: {x[i]!r} against {y[i]!r}"
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{len(a)} items against {len(b)}"
        return next((f"item {i}: {why}" for i, (x, y) in enumerate(zip(a, b)) if (why := agree(x, y, name))), None)
    if type(a) is float and type(b) is float:
        return None if _close(a, b, name) else f"{a!r} against {b!r}"
    return None if type(a) is type(b) and a == b else f"{a!r} against {b!r}"


def compare(old_path: str, new_path: str) -> int:
    """List the fields whose bits differ; for two ``--values`` files also
    those outside the contract, which alone fail the comparison."""
    old, new = json.loads(Path(old_path).read_text()), json.loads(Path(new_path).read_text())
    checked = "values" in old and "values" in new
    if checked:
        old, new = old["values"], new["values"]
    differ, outside = [], []
    for case in sorted(set(old) | set(new)):
        a, b = old.get(case, {}), new.get(case, {})
        for key in sorted(set(a) | set(b)):
            if json.dumps(a.get(key)) == json.dumps(b.get(key)):
                continue
            differ.append(f"{case} {key}")
            why = "missing on one side" if key not in a or key not in b else agree(a[key], b[key], key)
            if checked and why:
                outside.append(f"{case} {key}: {why}")
    for line in differ:
        print(f"differs: {line}")
    for line in outside:
        print(f"outside: {line}")
    n_fields = sum(len(fields) for fields in new.values())
    summary = f"{len(new)} cases, {n_fields} fields, {len(differ)} differ"
    if checked:
        print(f"{summary}, {len(outside)} outside the contract")
        return 1 if outside else 0
    print(summary)
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the spcm package")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two digest or value files")
    parser.add_argument("--values", action="store_true", help="print the values in place of their digests")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.values:
        print(json.dumps({"values": collect(values)}, indent=1, sort_keys=True))
    else:
        print(json.dumps(collect(digests), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
