"""qident benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the directory that holds ``src/qident`` and ``BENCHMARK.json``.
Every measured CLI call runs in a fresh interpreter (perfbench/child.py),
one at a time, so each pays for cold caches as a user's invocation does.
Children are started while the next one, judged by the last one's
duration, still ends within ``--seconds`` (at least three), and every
child's verdicts are checked against the expected ones and its
``--no-timing`` stdout against the first child's.

With ``--trace 0`` the result holds the end-to-end metrics: the mean
verify time of the children, and the medians of their set-up times (with
extra import-only children) and of their peak memory.  With
``--trace 1`` plain and traced children alternate; the result holds the
per-layer metrics of the traced ones, plus the tracing overhead.  The
last stdout line is the result object; the line before it records the
environment, the calibration loop and every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from itertools import cycle
from pathlib import Path
from statistics import fmean, median
from typing import NamedTuple

import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = "src"
WORK = "perfbench/.work"

CATALOG_ORDER = 16
CATALOG_SIZE = 39            # default instances of `verify --catalog all`
PROVE_ORDER = 24
SETUP_PROBES = 8             # import-only children per run
MIN_CHILDREN = 3             # timed children per run, whatever --seconds says
RUN_DEADLINE_S = 150         # stop starting children; stays under 180 s
EXIT = {"pass": 0, "mismatch": 1, "error": 2}


class Expect(NamedTuple):
    """Expected record: name (None: any), verdict, first differing q-power."""

    name: str | None
    status: str
    first_diff: int | None = None
    known_defect: bool = False


def build_workload(name: str, seed: int) -> tuple[list[str], list[Expect], dict]:
    """CLI arguments, expected records and recorded parameters."""
    if name == "catalog":
        argv = ["verify", "--catalog", "all", "--order", str(CATALOG_ORDER),
                "--no-timing"]
        return argv, [Expect(None, "pass")] * CATALOG_SIZE, {"order": CATALOG_ORDER}
    if name == "prove-main":
        argv = ["prove-main", "--order", str(PROVE_ORDER), "--no-timing"]
        return argv, [Expect("main-replay", "pass")], {"order": PROVE_ORDER}
    if name == "corpus":
        statements = corpus.generate(seed, corpus.ORDER)
        path = f"{WORK}/corpus_seed{seed}.qid"
        (ROOT / WORK).mkdir(parents=True, exist_ok=True)
        (ROOT / path).write_text(corpus.corpus_text(statements))
        argv = ["verify", path, "--order", str(corpus.ORDER), "--no-timing"]
        expect = [Expect(s.name, s.expect, s.first_diff, s.known_defect)
                  for s in statements]
        known = sum(s.known_defect for s in statements)
        return argv, expect, {"order": corpus.ORDER, "statements": len(statements),
                              "known_defect": known}
    raise SystemExit(f"unknown workload {name!r}")


# ------------------------------------------------------------- children


class ChildFailed(Exception):
    pass


def spawn(mode: str, argv: list[str], timeout: float) -> dict:
    """Run one child to completion; kill it if it outlives `timeout`."""
    cmd = [sys.executable, str(HERE / "child.py"), SRC, mode, *argv]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    out = err = None
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if err is None:
        raise ChildFailed(f"{mode} child killed after {timeout:.0f} s")
    if proc.returncode != 0 or not out:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{err.strip()[-400:]}")
    data = json.loads(out)
    data["setup_s"] = data["ready"] - t0
    return data


def check(data: dict, expect: list[Expect]) -> tuple[int, int, list[str]]:
    """(failed, known-defect failures, problems) of one child's output."""
    problems = []
    if data["error"]:
        problems.append("traceback: " + data["error"].strip().splitlines()[-1])
    records = []
    for line in data["stdout"].splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            problems.append(f"not a JSON record: {line[:80]!r}")
    if len(records) != len(expect):
        problems.append(f"{len(records)} records, expected {len(expect)}")
    failed = max(0, len(expect) - len(records))
    known = 0
    for rec, exp in zip(records, expect):
        status = rec.get("status")
        wrong = (exp.name is not None and rec.get("name") != exp.name) \
            or status != exp.status
        if not wrong and exp.first_diff is not None:
            first = (rec.get("first_mismatch") or {}).get("exponents")
            wrong = first != {"q": exp.first_diff}
        if not wrong:
            continue
        failed += 1
        if exp.known_defect and status == "mismatch" and rec.get("name") == exp.name:
            known += 1
        else:
            problems.append(f"{rec.get('name')}: {status}, expected {exp.status}"
                            + (f" at q^{exp.first_diff}" if exp.first_diff else ""))
    if records and data["code"] != max(EXIT.get(r.get("status"), 2) for r in records):
        problems.append(f"exit code {data['code']} disagrees with the records")
    return failed, known, problems


# ----------------------------------------------------------- environment


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, to show machine drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / SRC / "qident").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, params: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **params,
    }


# ------------------------------------------------------------------ main


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "prove-main", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its child (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / SRC / "qident" / "cli.py").is_file():
        print(f"no qident sources under {ROOT / SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    cli_argv, expect, params = build_workload(args.workload, args.seed)
    env = environment(args, params)
    calibration = [calibrate() for _ in range(3)]
    deadline = time.monotonic() + RUN_DEADLINE_S

    setup = []
    try:
        for _ in range(SETUP_PROBES):
            setup.append(spawn("setup", [], deadline - time.monotonic())["setup_s"])
    except ChildFailed as exc:
        print(f"qident does not start: {exc}", file=sys.stderr)
        return 2

    plain, traced, outputs, problems = [], [], [], []
    attempted = failed = known = 0
    modes = cycle(("plain", "traced") if args.trace else ("plain",))
    start, took = time.monotonic(), 0.0
    while (len(outputs) < MIN_CHILDREN
           or time.monotonic() - start + took <= args.seconds):
        if time.monotonic() > deadline:
            problems.append("run deadline reached")
            break
        mode = next(modes)
        attempted += len(expect)
        began = time.monotonic()
        try:
            data = spawn(mode, cli_argv, deadline - began)
        except ChildFailed as exc:
            failed += len(expect)
            problems.append(str(exc))
            break
        took = time.monotonic() - began
        f, k, p = check(data, expect)
        if outputs and data["stdout"] != outputs[0]:
            p.append(f"{mode} child's stdout differs from the first child's")
            f = len(expect)
        failed, known = failed + f, known + k
        problems += p
        outputs.append(data["stdout"])
        if mode == "plain":
            plain.append(data)
            setup.append(data["setup_s"])
        else:
            traced.append(data)
    calibration += [calibrate() for _ in range(3)]
    if not plain or (args.trace and not traced):
        print("no measured child completed: " + "; ".join(problems), file=sys.stderr)
        return 1

    if args.trace:
        layers = spans.median_metrics([d["layers"] for d in traced])
        untraced = median(d["verify_s"] for d in plain)
        values = {**layers,
                  "trace.untraced_verify_s": untraced,
                  "trace.overhead_s": layers["trace.verify_s"] - untraced,
                  "verdict.failed_frac": failed / attempted}
        units = declared["per_layer"]
    else:
        # verify_s is a mean: the shared machine switches between fast and
        # slow phases of seconds to minutes, so a run's children fall into
        # two clusters.  The median or the minimum jumps between them from
        # run to run; the mean moves with the share of slow time only.
        values = {"setup_s": median(setup),
                  "verify_s": fmean(d["verify_s"] for d in plain),
                  "peak_rss_mb": median(d["rss_mb"] for d in plain),
                  "verdict_ok_frac": (attempted - failed) / attempted}
        units = declared["end_to_end"]
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not "
                         "match BENCHMARK.json")

    print(json.dumps({
        "env": env,
        "calibration_s": calibration,
        "children": {"plain": len(plain), "traced": len(traced),
                     "setup_probes": SETUP_PROBES},
        "samples": {"setup_s": setup,
                    "verify_s": [d["verify_s"] for d in plain],
                    "traced_verify_s": [d["verify_s"] for d in traced],
                    "peak_rss_mb": [d["rss_mb"] for d in plain]},
        "known_defect_failures": known,
        "problems": problems[:20],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
