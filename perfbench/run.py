"""Benchmark of the leadlag-fuse pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload wide-200x3 --seed 1 --seconds 60 --trace 0

A run first times the set-up: a fresh process imports leadlag_fuse from this
checkout's ``src`` and writes the workload's price CSVs (``inputs.py``); it
does so several times and the median counts. Then it runs passes until
``--seconds`` have gone by. A pass is one full pipeline run, in this process,
through the program's own entry point ``cli.main``. Pass 0 writes into a fresh
output directory and is a warm-up; the later passes re-run the pipeline into
the same directory, and the medians are taken over them. After every pass
(outside its timing) the benchmark checks the outputs: a digest of all
artifacts but ``report.json`` must equal pass 0's, the embeddings must be
finite and the layout complete.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (see ``tracing.py``), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
(``perfbench detail ...``) holds what does not fit there: the environment,
the artifact digest, every pass time and the quality counts. The same detail
is written, with the spans of a traced run, under ``.perfbench_out/results``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every set-up child.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inputs import LEADER, FOLLOWER, ROOT, WORKLOADS, Workload, import_program  # noqa: E402
from tracing import Tracer, high_percentile, pass_layer_metrics  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
SETUPS_UNTRACED = 3
SETUPS_TRACED = 1
SETUP_TIMEOUT_S = 60
STAGES = ("ingest", "graphs", "fuse", "postprocess")


# --- environment -----------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(workload: Workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "graph_threads": workload.threads,
    }


# --- set-up ------------------------------------------------------------------------


def digest_tree(root: Path, skip: tuple[str, ...] = ()) -> tuple[str, int, int]:
    """sha256 over the relative paths and bytes of every file under root, the file count and byte count."""
    h = hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        files += 1
        size += path.stat().st_size
        rel = path.relative_to(root).as_posix()
        if rel in skip:
            continue
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest(), files, size


def run_setup(workload: Workload, seed: int, out: Path) -> float:
    """Seconds for a fresh process to import the program and write the inputs."""
    command = [
        sys.executable,
        str(Path(__file__).resolve().parent / "inputs.py"),
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--out",
        str(out),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {done.returncode}: {done.stderr.strip()}")
    return elapsed


# --- passes ----------------------------------------------------------------------


def run_pass(cli, workload: Workload, inputs: Path, out: Path) -> int:
    """One pipeline pass through cli.main; returns the first non-zero exit code, or 0."""
    common = ["--config", str(inputs / "config.json"), "--out", str(out), "--quiet"]
    threads = ["--threads", str(workload.threads)]
    if not workload.staged:
        return cli.main([*common, *threads, "run-all"])
    for stage in STAGES:
        code = cli.main([*common, *(threads if stage == "graphs" else []), stage])
        if code != 0:
            return code
    return 0


def check_pass(out: Path, manifest: dict, n_specs: int) -> tuple[list[str], dict]:
    """Problems found in a pass's artifacts, and its quality counts."""
    problems: list[str] = []
    n = len(manifest["assets"])
    for name in ("panel.csv", "embeddings.csv", "model.json", "pca.csv", "report.json"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems, {}

    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        dates = len(report["graphs"]["usable_window_ends"])
        training = report["training"]
        best_val_loss = training["best_val_loss"]
        rows = (out / "embeddings.csv").read_text(encoding="utf-8").splitlines()[1:]
        embeddings = np.array([[float(v) for v in row.split(",")[2:]] for row in rows])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable report.json or embeddings.csv: {exc!r}"], {}
    if len(rows) != n * dates or not np.all(np.isfinite(embeddings)):
        problems.append("embeddings are incomplete or non-finite")
    if best_val_loss is None or not np.isfinite(best_val_loss):
        problems.append("no finite best validation loss")
    graph_files = sorted((out / "graphs").glob("*/*.csv"))
    if len(graph_files) != n_specs * dates:
        problems.append(f"{len(graph_files)} graph files, expected {n_specs * dates}")
    similarity = sum(1 for _ in (out / "similarity").glob("*.csv"))
    if similarity != n * (n - 1) // 2:
        problems.append(f"{similarity} similarity series, expected {n * (n - 1) // 2}")

    planted = f"{LEADER},{FOLLOWER},"
    illiquid = set(manifest["illiquid"])
    recalled = false_links = illiquid_links = 0
    for path in graph_files:
        edges = path.read_text(encoding="utf-8").splitlines()[1:]
        has_planted = any(e.startswith(planted) for e in edges)
        false_links += len(edges) - has_planted
        illiquid_links += sum(1 for e in edges if set(e.split(",")[:2]) <= illiquid)
        if path.parent.name == "d1_T1":
            recalled += has_planted
    graphs = len(graph_files)
    k = len(illiquid)
    quality = {
        "usable_dates": dates,
        "graphs": graphs,
        "planted_link_recall": recalled / dates if dates else 0.0,
        "false_links": false_links,
        "false_link_rate": false_links / ((n * (n - 1) // 2 - 1) * graphs) if graphs else 0.0,
        "illiquid_false_links": illiquid_links,
        "illiquid_false_link_share": illiquid_links / (k * (k - 1) // 2 * graphs) if k > 1 and graphs else 0.0,
        "best_val_loss": best_val_loss,
        "stop_epoch": training.get("stop_epoch"),
        "best_epoch": training.get("best_epoch"),
    }
    return problems, quality


# --- the run -------------------------------------------------------------------------


def measure(args: argparse.Namespace) -> int:
    try:
        program = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from this checkout: {exc}", file=sys.stderr)
        return 2
    from leadlag_fuse import cli

    workload = WORKLOADS[args.workload]
    n_specs = len(cli.default_config()["specs"])
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = OUT_ROOT / "work" / run_id
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(args, program, cli, workload, n_specs, run_id, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, program, cli, workload: Workload, n_specs: int, run_id: str, work: Path) -> int:
    setups = SETUPS_TRACED if args.trace else SETUPS_UNTRACED
    setup_times = [run_setup(workload, args.seed, work / f"inputs-{k}") for k in range(setups)]
    input_digests = {digest_tree(work / f"inputs-{k}")[0] for k in range(setups)}
    for k in range(1, setups):
        shutil.rmtree(work / f"inputs-{k}")
    if len(input_digests) != 1:
        print("error: set-up wrote different inputs from the same seed", file=sys.stderr)
        return 1
    inputs = work / "inputs-0"
    manifest = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))

    # Pass 0 writes into a fresh output directory; every later pass re-runs the
    # pipeline into that same directory and overwrites the same files. On the
    # 2-core reference host the system time to create ~20,000 new files varied
    # tenfold and grew from pass to pass when each pass created them anew, while
    # overwriting them took under a second. So pass 0 is a warm-up: it is
    # checked like every pass and its time is recorded, but the medians use the
    # re-runs only. A pass starts only while the longest re-run cycle (pass
    # plus check) so far still fits in --seconds, so a run ends near --seconds.
    tracer = Tracer(program) if args.trace else None
    minimum = 3 if tracer else 2  # the warm-up, then at least one pass of each kind
    out = work / "out"
    passes: list[dict] = []
    cycles: list[float] = []
    first_digest = None
    quality: dict = {}
    begin = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - begin + max(cycles[1:]) <= args.seconds:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        try:
            code = run_pass(cli, workload, inputs, out)
        finally:
            wall, cpu = time.perf_counter() - start_wall, time.process_time() - start_cpu
            if traced:
                tracer.uninstall()
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            found, counts = check_pass(out, manifest, n_specs)
            problems += found
            digest, counts["files"], counts["bytes"] = digest_tree(out, skip=("report.json",))
            if first_digest is None:
                first_digest, quality = digest, counts
            elif digest != first_digest:
                problems.append("artifact digest differs from the first pass")
        passes.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "problems": problems})
        cycles.append(time.perf_counter() - start_wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(1 for p in passes if p["problems"])
    reruns = [p for p in passes[1:] if not p["problems"]] or passes[1:]
    untraced = [p for p in reruns if not p["traced"]]
    detail = {
        "run": run_id,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(workload),
        "inputs_digest": input_digests.pop(),
        "illiquid": manifest["illiquid"],
        "artifacts_digest": first_digest,
        "setup_s": setup_times,
        "passes": passes,
        "pipeline_s_high": dict(
            zip(("value", "percentile"), high_percentile([p["wall_s"] for p in untraced])), samples=len(untraced)
        ),
        "quality": quality,
    }

    if args.trace:
        per_pass = [
            pass_layer_metrics([s for s in tracer.spans if s.pass_id == i], workload.threads)
            for i, p in enumerate(passes)
            if p["traced"] and not p["problems"]
        ] or [pass_layer_metrics([], workload.threads)]
        layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layer["trace.overhead_s"] = statistics.median(p["wall_s"] for p in passes if p["traced"]) - statistics.median(
            p["wall_s"] for p in passes[1:] if not p["traced"]
        )
        layer["artifacts.files_written"] = quality.get("files", 0)
        layer["artifacts.bytes_written"] = quality.get("bytes", 0)
        layer["leadlag.false_link_rate"] = quality.get("false_link_rate", 0.0)
        layer["leadlag.illiquid_false_link_share"] = quality.get("illiquid_false_link_share", 0.0)
        layer["fusion.best_val_loss"] = quality.get("best_val_loss", 0.0)
        values = layer
        tracer.write(OUT_ROOT / "results" / f"{run_id}.spans.csv")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": statistics.median(p["wall_s"] for p in untraced),
            "pipeline_cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": peak_rss_mb,
            "planted_link_recall": quality.get("planted_link_recall", 0.0),
        }

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail["metrics"] = metrics
    results = OUT_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print("perfbench detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    """Name and unit of every metric of one kind ("end_to_end" or "per_layer") in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
