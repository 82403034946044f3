"""Host-CPU benchmark of the ALPHA reproduction.

    python3 perfbench/run.py --workload base_interlock --seed 0 --seconds 20 --trace 0

Runs one workload (see perfbench/README.md), checks every delivery, and
prints a readable report followed, as the last line, by one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the ``end_to_end`` list of BENCHMARK.json,
from an untraced run; with ``--trace 1`` they are the ``per_layer``
list, from a traced run whose spans are also written to
``perfbench/out/spans-<workload>.bin``.

Run it from the repository root; it imports the program from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        spec = json.load(src)
    return spec["per_layer" if trace else "end_to_end"]


def layer_table(out) -> list[str]:
    """The traced run's spans by self time, and the sum check."""
    table, msgs = out["table"], max(out["accounting"]["delivered"], 1)
    wall = table["bench.timed"]["total_ns"]
    lines = [f"{'span':28s} {'calls':>9s} {'self_ms':>10s} {'share':>7s} {'ns/msg':>9s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ns"]):
        label = "(untraced remainder)" if name == "bench.timed" else name
        lines.append(
            f"{label:28s} {row['calls']:9d} {row['self_ns'] / 1e6:10.2f} "
            f"{row['self_ns'] / wall:7.2%} {row['self_ns'] / msgs:9.0f}"
        )
    total = sum(row["self_ns"] for row in table.values())
    lines.append(
        f"sum of self times {total} ns = traced wall {wall} ns "
        f"({'ok' if total == wall else 'MISMATCH'})"
    )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    messages = workloads.message_count(args.workload, args.seconds)
    if args.trace:
        # A traced run does the phase twice (untraced reference, then
        # traced), so each gets half the messages.
        messages = max(1, messages // 2)
    calibration = workloads.calibrate()
    size = workloads.WORKLOADS[args.workload][1]
    payloads = workloads.make_payloads(args.seed, messages, size)
    run = workloads.Run(args.workload, args.seed)
    correct = True
    if args.trace:
        metrics, out = run.traced(payloads)
        correct = out["reference"]["accounting"]["correct"]
        table = out["table"]
        correct &= sum(r["self_ns"] for r in table.values()) == table["bench.timed"]["total_ns"]
    else:
        metrics, out = run.end_to_end(payloads)
    metrics["bench.calibration_ns"] = (calibration, "ns")
    acc = out["accounting"]
    correct &= acc["correct"]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"messages={messages} bytes={size}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6g} {unit}")
    print(f"timed phase: {acc['delivered']} delivered in {out['wall_s']:.3f} s wall, "
          f"{out['cpu_s']:.3f} s CPU")
    host_ref = out.get("host_ref")
    if host_ref is not None:
        print(f"reference loop: {host_ref.wall_ns / host_ref.iterations:.1f} ns/iteration wall, "
              f"{host_ref.cpu_ns / host_ref.iterations:.1f} CPU (scaled to "
              f"{workloads.REF_NS:.0f}); unscaled {acc['delivered'] / out['wall_s']:.1f} msg/s, "
              f"{out['cpu_s'] / max(acc['delivered'], 1) * 1e6:.1f} us/msg")
    if "marks" in out:
        rates = [(n1 - n0) / (w1 - w0) for (w0, _, n0), (w1, _, n1)
                 in zip(out["marks"], out["marks"][1:])]
        print("segment msg/s (diagnostic): " + " ".join(f"{r:.0f}" for r in rates))
    if "setup_times" in out:
        times = out["setup_times"]
        raw = out["raw_setup_times"]
        print(f"set-up: median of {len(times)} samples, "
              f"{min(times) * 1e3:.2f}–{max(times) * 1e3:.2f} ms scaled; "
              f"unscaled median {statistics.median(raw) * 1e3:.2f} ms")
    forger, fates = out["forged"]
    if fates is not None:
        print(f"forged packets injected: {forger.sent}")
        for hop, fate in enumerate(fates.by_hop, 1):
            print(f"forged at relay {hop}: "
                  + " ".join(f"{key}={n}" for key, n in sorted(fate.items())))
    print("conservation " + " ".join(
        f"{key}={acc[key]}" for key in (
            "submitted", "delivered", "reported_failed", "silently_missing",
            "duplicated", "foreign", "altered")
    ) + f" balanced={'yes' if acc['balanced'] else 'NO'}")
    if args.trace:
        print("\n".join(layer_table(out)))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.bin")
        out["tracer"].dump(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    result = {}
    for spec in declared_metrics(args.trace):
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} != declared {spec['unit']}")
        result[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": acc["submitted"],
        "failed": acc["failed"],
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
