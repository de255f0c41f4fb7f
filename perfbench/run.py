"""starminer benchmark: one workload, measured end to end through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table each

Each run launches a fresh child process (``child.py run``) that calls
``starminer.cli.main`` once with ``--workers 1``; runs are sequential.
Children are launched until ``--seconds`` have passed, and at least
MIN_SAMPLES times. End-to-end metrics are medians over the successful
untraced runs:

    run_s        launch of the child until it exits, artifacts written
    setup_s      launch until the first miner call (fi_gen/apriori_baseline)
    cpu_s        user + system CPU seconds of the child (os.wait4)
    peak_rss_mb  the child's ru_maxrss (os.wait4)
    failed_frac  failed runs / attempted runs (table only: it is 0 when all
                 is well, so the JSON carries it as ``failed``/``attempted``)

With ``--trace 1`` one traced run follows the untraced ones, and the JSON
metrics are the per-layer ones built from its spans (spans.py).

A run fails on a non-zero exit, a missing setup timestamp, an output digest
that differs from the other runs (or, at the default seed, from
reference.json), a changed input fingerprint, a recount the raw CSVs
contradict (check.py), or, when traced, a span that never fired. Failed
runs count in ``failed`` and are never dropped; their timings are left out of
the medians.

The human-readable table goes to stdout and the last line of stdout is the
JSON result. The full result (every sample, environment, input fingerprint,
spans) is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import input_fingerprint, output_digest, recount_problems
from spans import LAYER_UNITS, layer_metrics, missing_spans
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
STATE = ROOT / ".perfbench"
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _child_env() -> dict[str, str]:
    # A fixed hash seed makes set and dict layout, and so the timings of the
    # hash-heavy stages, the same on every run of one input.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _helper(*args: str) -> None:
    """Run an untimed helper process; heavy set-up work stays out of this
    process so that its RSS never inflates a child's ru_maxrss."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed:\n{proc.stderr[-2000:]}")


def prepare(wl: Workload, seed: int, work: Path) -> None:
    """Compile the sources and write the workload's input CSVs."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _helper("-m", "compileall", "-q", str(ROOT / "src"), str(HERE))
    if not wl.synth_in_cli:
        _helper(str(CHILD), "gen", str(seed), str(wl.rows), str(wl.products), str(wl.data_dir(work)))


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_once(wl: Workload, seed: int, work: Path, traced: bool, algorithm: str | None = None) -> tuple[dict, dict]:
    """Launch one child and return (sample, the child's record)."""
    out, record_path, log = work / "out", work / "record.json", work / "child.log"
    shutil.rmtree(out, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    mode = ["trace" if traced else "plain", str(record_path)]
    if traced and wl.time_two_workers:
        mode.append("--w2")
    argv = [sys.executable, str(CHILD), "run", *mode, "--", *wl.argv(seed, work, algorithm)]
    redirect = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]

    start = _now_ns()
    pid = os.posix_spawn(sys.executable, argv, _child_env(), file_actions=redirect)
    killer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    end = _now_ns()

    sample: dict = {
        "traced": traced,
        "run_s": (end - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "problems": [],
    }
    exit_code = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.exists() else {}
    if exit_code != 0 or record.get("exit") != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-1500:] if log.exists() else ""
        sample["problems"].append(f"child exited with {exit_code}: {tail}")
        return sample, record
    if not traced:
        if record.get("first_miner_ns") is None:
            sample["problems"].append("no miner call: the setup timestamp was never taken")
        else:
            sample["setup_s"] = (record["first_miner_ns"] - start) / 1e9
    try:
        sample["digest"], sample["itemsets"], sample["rules"] = output_digest(out)
        sample["inputs"] = input_fingerprint(wl.data_dir(work))
    except (OSError, ValueError, KeyError) as exc:
        sample["problems"].append(f"unreadable artifacts: {exc!r}")
    return sample, record


def _reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def check_samples(wl: Workload, seed: int, work: Path, samples: list[dict]) -> None:
    """Cross-run output checks; problems are attached to the failing samples.

    The recount reads the artifacts of the last run, which is the run every
    other one is compared with.
    """
    ran = [s for s in samples if "digest" in s]
    if not ran:
        return
    last = ran[-1]
    expected = {"digest": last["digest"], "inputs": last["inputs"]}
    ref = _reference()["workloads"].get(wl.name) if seed == DEFAULT_SEED else None
    if ref is not None:
        expected = {"digest": ref["digest"], "inputs": ref["inputs"]}
    try:
        problems = recount_problems(wl, wl.data_dir(work), work / "out", seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"recount could not read the artifacts: {exc!r}"]
    for s in ran:
        if s["digest"] != expected["digest"]:
            s["problems"].append(f"output digest {s['digest'][:12]} != expected {expected['digest'][:12]}")
        if s["inputs"] != expected["inputs"]:
            s["problems"].append("input fingerprint differs")
        if s["digest"] == last["digest"]:
            s["problems"].extend(problems[:10])


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    prepare(wl, seed, work)
    samples: list[dict] = []
    record: dict = {}
    deadline = time.monotonic() + seconds
    # Past the deadline, only runs that keep succeeding extend it to
    # MIN_SAMPLES, so a hanging child cannot push the benchmark past its limit.
    while time.monotonic() < deadline or (
        len(samples) < MIN_SAMPLES and not any(s["problems"] for s in samples)
    ):
        samples.append(run_once(wl, seed, work, traced=False)[0])
    if trace:
        traced, record = run_once(wl, seed, work, traced=True)
        missing = missing_spans(record.get("spans", []), wl.expected_spans)
        if missing and not traced["problems"]:
            traced["problems"].append(f"spans never fired: {', '.join(missing)}")
        if not record.get("w2", {"agree": True})["agree"]:
            traced["problems"].append("fi_gen with workers=2 disagrees with workers=1")
        samples.append(traced)
    check_samples(wl, seed, work, samples)

    good = [s for s in samples if not s["problems"] and not s["traced"]]
    summary = {m: _summary([s[m] for s in good]) for m in END_TO_END_UNITS} if good else {}
    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs": next((s["inputs"] for s in samples if "inputs" in s), None),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s["problems"]),
        "end_to_end": summary,
        "samples": samples,
    }
    if trace and summary and record.get("exit") == 0:
        # the workers timing runs after the traced CLI call and is not overhead
        w2 = record.get("w2") or {"w1_s": 0.0, "w2_s": 1.0, "total_s": 0.0}
        result["layers"] = layer_metrics(
            record["spans"],
            samples[-1]["run_s"] - w2["total_s"],
            summary["run_s"]["median"],
            w2["w1_s"] / w2["w2_s"],
        )
        result["spans"] = record["spans"]
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }


def _line(result: dict) -> dict:
    """The JSON result line for one workload."""
    if result["trace"]:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in result.get("layers", {}).items()}
    else:
        metrics = {k: {"value": v["median"], "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_table(result: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"inputs {(result['inputs'] or {}).get('all', '?')[:16]}  python {result['environment']['python']}"
    )
    print(f"  {'metric':<30} {'median':>14} {'q1':>12} {'q3':>12}  {'unit':<6} n")
    for name, s in result["end_to_end"].items():
        unit = END_TO_END_UNITS[name]
        print(f"  {name:<30} {s['median']:>14.4f} {s['q1']:>12.4f} {s['q3']:>12.4f}  {unit:<6} {s['n']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<30} {frac:>14.4f} {'':>12} {'':>12}  {'1':<6} {result['attempted']}")
    for name, value in result.get("layers", {}).items():
        print(f"  {name:<30} {value:>14.6g} {'':>12} {'':>12}  {LAYER_UNITS[name]:<6} 1")
    for s in result["samples"]:
        for problem in s["problems"]:
            print(f"  FAILED ({'traced' if s['traced'] else 'untraced'} run): {problem}", file=sys.stderr)


def save(result: dict) -> Path:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return path


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own benchmark process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        line = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "starminer" / "cli.py").is_file():
        print(f"perfbench: no starminer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload]
    work = STATE / "work" / f"{wl.name}-{os.getpid()}"
    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = save(result)
    print_table(result)
    print(f"  full result: {path.relative_to(ROOT)}")
    if not result["end_to_end"]:
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1
    if result["trace"] and "layers" not in result:
        print("perfbench: the traced run failed", file=sys.stderr)
        return 1
    print(json.dumps(_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
