"""End-to-end, layer-attributed benchmark of the Hercules reproduction.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fleet-p2c --seed 0 --seconds 30 --trace 0

Each command of a workload runs in a fresh interpreter (``child.py``),
one at a time, for ``--seconds`` seconds; every run's result document is
checked, and the end-to-end metrics are medians over the untraced runs,
with the times corrected for host contention by the commands' own speed
probe (``uncontended``).
``--trace 1`` alternates untraced and traced runs; the layer spans of the
median traced run give the per-layer metrics.  The last stdout line is
the JSON result; a full record with provenance and spans goes to
``e2ebench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

#: Untraced runs made even when ``--seconds`` is shorter than them.
MIN_RUNS = 3
#: Set-up-only runs made first, so that ``setup_s`` has enough samples
#: even on a workload whose commands are long.
SETUP_RUNS = 10
#: A command slower than this is killed and counted as failed.
RUN_TIMEOUT_S = 120.0
#: The speed probe's loop time (``child.PROBE_LOOP`` steps) on a free
#: core of the host the bounds were set on; times are reported at the
#: speed this stands for.  See README.md, "Timing".
REFERENCE_PROBE_S = 0.45e-3

ALL_SERVERS = ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10"]
ALL_MODELS = [
    "DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3", "MT-WnD", "DIN", "DIEN",
]
_FLEET = [
    "fleet", "--servers", "50", "--server-types", "T2", "T3", "T7",
    "--models", "DLRM-RMC1", "DLRM-RMC2", "--duration", "20",
    "--jobs", "1", "--shards", "1", "--core", "auto", "--json",
]
# Two crashes with recovery, a blip and two slowdowns inside the 20 s day.
_FAULTS = "crash@4:0+2,crash@9:5+1.5,blip@12:10,slow@6:3*1.5+4,slow@14:12*1.4+3"

#: Why each workload exists is in README.md.  ``fault_events`` is the
#: number of atomic fault events the scripted schedule applies.
WORKLOADS = {
    "fleet-p2c": {
        "kind": "fleet",
        "argv": _FLEET + ["--policy", "p2c"],
        "fault_events": 0,
        "no_drops": True,
    },
    "fleet-rr-faults": {
        "kind": "fleet",
        "argv": _FLEET + ["--policy", "rr", "--retries", "0", "--faults", _FAULTS],
        "fault_events": 10,
        "no_drops": False,
    },
    "offline-day": {
        "kind": "offline-day",
        "servers": ALL_SERVERS,
        "models": ALL_MODELS,
        "peak_qps": 10_000.0,
        "interval_minutes": 30.0,
        "over_provision": 0.05,
    },
}

#: Spans every run of a workload kind must record (untraced runs do
#: not time the arrival stream).
EXPECTED_SPANS = {
    "fleet": (
        "import", "scheduling.profile", "scheduling.profile_pair",
        "cluster.allocate", "fleet.build", "fleet.replay",
        "traces.arrivals", "fleet.report",
    ),
    "offline-day": (
        "import", "scheduling.profile", "scheduling.profile_pair",
        "cluster.allocate", "cluster.run_day",
    ),
}


def declared_metrics(traced: bool) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        m["name"]: m["unit"]
        for m in bench["per_layer" if traced else "end_to_end"]
    }


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def prepare() -> dict:
    """Byte-compile ``src/`` (as an install would) and check that
    ``repro.cli`` imports; returns the library versions.  Raises
    ``RuntimeError`` when the program is not there."""
    if not (SRC / "repro").is_dir():
        raise RuntimeError(f"no program source at {SRC / 'repro'}")
    code = (
        "import compileall, json, sys\n"
        f"compileall.compile_dir({str(SRC / 'repro')!r}, quiet=1)\n"
        "import repro.cli, numpy, scipy\n"
        "print(json.dumps({'numpy': numpy.__version__, "
        "'scipy': scipy.__version__}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_child_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import repro.cli:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
    }


def resolve(workload: str, seed: int) -> dict:
    """The workload's full arguments for one seed.  ``offline-day``
    profiles and provisions noise-free traces, as ``serve`` does, so the
    seed does not enter it."""
    spec = dict(WORKLOADS[workload])
    if spec["kind"] == "fleet":
        spec["argv"] = spec["argv"] + ["--seed", str(seed)]
    return spec


def run_command(spec: dict, mode: str) -> dict:
    """One command in a fresh interpreter, in ``child.py``'s ``mode``;
    raises on any failure."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(spec), mode, repr(t_spawn)],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"exit code {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def check(spec: dict, rec: dict, traced: bool) -> list[str]:
    """Correctness problems of one run: its result document, and any
    expected layer span that was not recorded (a wrapped call that the
    program no longer makes)."""
    problems = []
    expected = set(EXPECTED_SPANS[spec["kind"]])
    if not traced:
        expected.discard("traces.arrivals")
    missing = sorted(expected - {s["name"] for s in rec["spans"]})
    if missing:
        problems.append(f"spans not recorded: {missing}")
    doc = rec["doc"]
    table = rec["table"]
    if table["feasible"] != table["pairs"]:
        problems.append(
            f"{table['pairs'] - table['feasible']} infeasible table pairs"
        )
    if spec["kind"] == "offline-day":
        for policy, day in doc["days"].items():
            if day["any_shortfall"]:
                problems.append(f"{policy} day has a shortfall")
        return problems
    if rec["rc"] != 0:
        problems.append(f"fleet exited {rec['rc']}")
    for model, stats in doc["per_model"].items():
        p = (stats["p50_ms"], stats["p95_ms"], stats["p99_ms"])
        if not all(math.isfinite(x) for x in p) or not p[0] <= p[1] <= p[2]:
            problems.append(f"{model}: bad percentiles {p}")
    if spec["no_drops"] and doc["totals"]["dropped"]:
        problems.append(f"{doc['totals']['dropped']} queries dropped")
    if len(doc["fault_events"]) != spec["fault_events"]:
        problems.append(
            f"{len(doc['fault_events'])} fault events applied, expected "
            f"{spec['fault_events']}"
        )
    return problems


def modelled(spec: dict, rec: dict) -> dict:
    """Simulated (seed-deterministic) outputs of one result document."""
    doc = rec["doc"]
    out = {"table_lbt_qps": rec["table"]["lbt_qps"]}
    if spec["kind"] == "offline-day":
        days = doc["days"]
        out["provisioned_power_w"] = days["hercules"]["peak_power_w"]
        out["cluster.run_day.power_saving_vs_greedy"] = (
            1.0 - days["hercules"]["peak_power_w"] / days["greedy"]["peak_power_w"]
        )
        return out
    totals = doc["totals"]
    demand = totals["completed"] + totals["failed"] + totals["dropped"]
    out.update(
        {
            "provisioned_power_w": doc["analytic"]["provisioned_power_w"],
            "fleet.sim_p99_ms": max(s["p99_ms"] for s in doc["per_model"].values()),
            "fleet.sim_violation_rate": doc["worst_violation_rate"],
            "fleet.sim_goodput": totals["completed"] / demand,
            "fleet.sim_avg_power_w": doc["avg_power_w"],
            "fleet.faults.applied": len(doc["fault_events"]),
        }
    )
    return out


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics from one traced run's spans, timed at
    reference speed like ``wall_s``."""
    walls: dict[str, float] = {}
    attrs: dict[str, dict] = {}
    longest: dict[str, float] = {}
    spans: dict[str, dict] = {}
    for span in rec["spans"]:
        name = span["name"]
        dur = uncontended(rec, span["start"], span["end"])
        spans.setdefault(name, span)
        walls[name] = walls.get(name, 0.0) + dur
        longest[name] = max(longest.get(name, 0.0), dur)
        acc = attrs.setdefault(name, {})
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)):
                acc[key] = acc.get(key, 0) + value

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    profile_s = walls.get("scheduling.profile", 0.0)
    pairs = attrs.get("scheduling.profile", {}).get("pairs", 0)
    evals = attrs.get("scheduling.profile", {}).get("evaluations", 0)
    day_s = walls.get("cluster.run_day", 0.0)
    arrivals = attrs.get("traces.arrivals", {})
    # ``busy_s`` is spread over the stream's span; scale it as the span is.
    stream = spans.get("traces.arrivals")
    arrivals_s = arrivals.get("busy_s", 0.0) * (
        walls["traces.arrivals"] / (stream["end"] - stream["start"])
        if stream and stream["end"] > stream["start"] else 1.0
    )
    queries = arrivals.get("queries", 0)
    replay_s = walls.get("fleet.replay", 0.0)
    replay = attrs.get("fleet.replay", {})
    # The report runs from the first ``to_dict`` until the document is
    # written, so it includes the JSON encode and write.
    report = spans.get("fleet.report")
    return {
        "import.wall_s": walls.get("import", 0.0),
        "scheduling.profile.wall_s": profile_s,
        "scheduling.profile.pairs": pairs,
        "scheduling.profile.pairs_per_s": per_s(pairs, profile_s),
        "scheduling.profile.evaluations": evals,
        "scheduling.profile.evals_per_s": per_s(evals, profile_s),
        "scheduling.profile_pair.max_wall_s": longest.get(
            "scheduling.profile_pair", 0.0
        ),
        "cluster.allocate.wall_s": walls.get("cluster.allocate", 0.0),
        "cluster.run_day.wall_s": day_s,
        "cluster.run_day.intervals_per_s": per_s(
            attrs.get("cluster.run_day", {}).get("intervals", 0), day_s
        ),
        "traces.arrivals.wall_s": arrivals_s,
        "traces.arrivals.queries": queries,
        "traces.arrivals.queries_per_s": per_s(queries, arrivals_s),
        "fleet.build.wall_s": walls.get("fleet.build", 0.0),
        "fleet.replay.wall_s": replay_s,
        "fleet.replay.events": replay.get("events", 0),
        "fleet.replay.events_per_s": per_s(replay.get("events", 0), replay_s),
        "fleet.replay.queries_per_s": per_s(queries, replay_s),
        "fleet.replay.rss_growth_mib": replay.get("rss_growth_mib", 0.0),
        "fleet.report.wall_s": (
            uncontended(rec, report["start"], spans["command"]["end"])
            if report is not None else 0.0
        ),
    }


def replay_labels(rec: dict) -> dict:
    """Which replay core ran, read from the engine's ``core='auto'`` line."""
    prefix = "core='auto': falling back to the python event core ("
    for line in rec["logs"]:
        if line.startswith(prefix):
            return {
                "fleet.replay.core": "python",
                "fleet.replay.fallback_reason": line[len(prefix):-1],
            }
    return {"fleet.replay.core": "vector", "fleet.replay.fallback_reason": ""}


def uncontended(rec: dict, start: float, end: float) -> float:
    """The command's time from ``start`` to ``end``, at reference speed.

    The probe samples' own time is taken out first.  What remains is
    scaled by ``REFERENCE_PROBE_S`` over the mean of the samples taken
    in that interval, which removes the share of the time that
    contention for the core added, as the probe felt it.  An interval
    too short to hold a sample is scaled by the mean of the whole run.
    """
    inside = [d for t, d in rec["probes"] if start <= t < end]
    probes = inside or [d for _, d in rec["probes"]]
    if not probes:
        return end - start
    return (end - start - sum(inside)) * REFERENCE_PROBE_S / statistics.fmean(probes)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run the workload for ``seconds`` and return the full record."""
    spec = resolve(workload, seed)
    runs: list[dict] = []
    good: list[tuple[dict, dict]] = []
    reference: tuple | None = None
    deadline = time.monotonic() + seconds

    def attempt(mode: str) -> None:
        nonlocal reference
        entry = {"mode": mode, "problems": []}
        runs.append(entry)
        try:
            rec = run_command(spec, mode)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            entry["problems"].append(f"run failed: {exc}")
            return
        if mode != "setup":
            entry.update(
                {k: rec[k] for k in ("wall_s", "import_s", "peak_rss_mib")}
            )
            try:
                entry["problems"] += check(spec, rec, mode == "traced")
            except (KeyError, TypeError) as exc:
                entry["problems"].append(f"malformed result document: {exc!r}")
            outcome = (rec["doc"], rec["table"])
            if reference is None:
                reference = outcome
            elif outcome != reference:
                entry["problems"].append(
                    "result document differs from the first run at this seed"
                )
        if not entry["problems"]:
            good.append((entry, rec))

    if not traced:
        for _ in range(SETUP_RUNS):
            attempt("setup")
    # Traced and untraced runs alternate, so host drift hits both alike.
    walls: list[float] = []
    while True:
        started = time.monotonic()
        attempt("traced" if traced and len(walls) % 2 == 1 else "untraced")
        walls.append(time.monotonic() - started)
        # Stop before the next run would overrun the budget.
        if len(walls) >= MIN_RUNS and (
            time.monotonic() + statistics.median(walls) > deadline
        ):
            break

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "args": spec,
        "runs": runs,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["problems"]),
        "metrics": {},
    }
    for entry, rec in good:
        entry["probe_mean_s"] = statistics.fmean(d for _, d in rec["probes"])
        entry["uncontended_setup_s"] = uncontended(rec, 0.0, rec["setup_end_s"])
        if "wall_s" in rec:
            entry["uncontended_wall_s"] = uncontended(rec, 0.0, rec["wall_s"])
            rec["uncontended_wall_s"] = entry["uncontended_wall_s"]
    by_mode = {
        mode: [entry for entry, _ in good if entry["mode"] == mode]
        for mode in ("setup", "untraced", "traced")
    }
    untraced_runs = by_mode["untraced"]
    if not untraced_runs:
        return record
    record["raw_wall_median_s"] = statistics.median(
        r["wall_s"] for r in untraced_runs
    )
    wall = statistics.median(r["uncontended_wall_s"] for r in untraced_runs)
    sim = modelled(spec, {"doc": reference[0], "table": reference[1]})
    if not traced:
        record["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(
                r["uncontended_setup_s"] for r in by_mode["setup"] + untraced_runs
            ),
            "peak_rss_mib": statistics.median(
                r["peak_rss_mib"] for r in untraced_runs
            ),
            "provisioned_power_w": sim["provisioned_power_w"],
            "table_lbt_qps": sim["table_lbt_qps"],
        }
        return record
    traced_recs = [rec for entry, rec in good if entry["mode"] == "traced"]
    if not traced_recs:
        return record
    # Layer metrics come from the traced run of median wall time.
    traced_recs.sort(key=lambda r: r["uncontended_wall_s"])
    traced_rec = traced_recs[(len(traced_recs) - 1) // 2]
    layers = layer_metrics(traced_rec)
    layers.update(sim)
    layers["trace.overhead"] = (
        statistics.median(r["uncontended_wall_s"] for r in traced_recs) / wall
    )
    # A layer the workload does not run reads 0 (no time, no work).
    record["metrics"] = {
        name: layers.get(name, 0) for name in declared_metrics(True)
    }
    if spec["kind"] == "fleet":
        record["labels"] = replay_labels(traced_rec)
    record["spans"] = traced_rec["spans"]
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        versions = prepare()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host = provenance(versions)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["provenance"] = host

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for run in record["runs"]:
        for problem in run["problems"]:
            print(f"FAILED run: {problem}", file=sys.stderr)
    if not record["metrics"]:
        print("error: no run completed; no metrics", file=sys.stderr)
        return 1
    print(f"# host {json.dumps(host)}")
    print(f"# workload {args.workload} args {json.dumps(record['args'])}")
    for key, value in record.get("labels", {}).items():
        print(f"# {key} = {value}")
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in declared_metrics(bool(args.trace)).items()
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(
        f"# runs {record['attempted']}, failed {record['failed']}; "
        f"record in {path.relative_to(ROOT)}"
    )
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
