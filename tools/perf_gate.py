#!/usr/bin/env python3
"""Performance gate over the committed bench JSON baselines.

Dispatches on the file's "bench" field:

perf_csr  (bench_perf --csr-compare)
    Compares a freshly measured run against the committed baseline and
    fails when the frozen-CSR advise-phase speedup regresses by more than
    --max-regression (default 15%) on any row present in both files.
    Because both sides of every row (legacy nested-vector pipeline vs
    frozen-CSR pipeline) are re-measured on the same machine in the same
    process, the gated quantity is a dimensionless ratio: machine speed
    cancels, so the committed baseline stays meaningful on any hardware.
    Also enforces the absolute acceptance floors this layout shipped with:
    complete-family rows with n >= --floor-n must show at least
    --min-speedup on both advise tasks, and every row must keep a
    bytes-per-edge reduction of at least --min-mem-saved.

perf_seedbatch  (bench_perf --seed-batch)
    Gates the seed-batched lockstep executor:
     * "identical" — the batched pass reproduced every lane's scalar
       TaskReport. Machine-independent, gated on every fresh row.
     * speedup — the scalar/batched wall ratio. Both passes run on the
       same host with the same jobs count, so the ratio measures
       deduplication (shared lockstep passes), not parallelism, and
       ports across machines: fault-free ("none") rows are held to the
       absolute --min-batch-speedup floor, and rows shared with the
       baseline fail on a >--max-regression drop (both sides clamped to
       --batch-regression-cap first: past that the replay tail has
       vanished and the ratio is timer noise over microseconds).

Usage:
    python3 tools/perf_gate.py --fresh BENCH_perf_csr.json \
        --baseline BENCH_perf_csr.json.committed
"""

import argparse
import json
import sys

SPEEDUP_KEYS = ("advise_wakeup_speedup", "advise_broadcast_speedup")


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    if data.get("bench") not in ("perf_csr", "perf_seedbatch",
                                 "perf_schedbatch", "e16_byzantine"):
        sys.exit(f"{path}: not a perf_gate-gated bench record "
                 f"(bench = {data.get('bench')!r})")
    return data


def gate_csr(fresh_data, base_data, args):
    fresh = {(r["family"], r["n"]): r for r in fresh_data["rows"]}
    base = {(r["family"], r["n"]): r for r in base_data["rows"]}
    shared = sorted(set(fresh) & set(base))
    if not shared:
        sys.exit("no (family, n) rows shared between fresh and baseline")

    failures = []
    # Advice identity is machine-independent: every fresh row must report
    # the legacy and production wakeup/broadcast advice bit-equal, shared
    # with the baseline or not. A row without the bit counts as a failure.
    for (family, n), row in sorted(fresh.items()):
        if row.get("identical") is not True:
            failures.append(
                f"{family} n={n}: legacy vs production advice NOT "
                f"identical (identical={row.get('identical')})")

    print(f"{'row':>22} | {'metric':>24} | {'base':>8} | {'fresh':>8}")
    for key in shared:
        family, n = key
        frow, brow = fresh[key], base[key]
        for metric in SPEEDUP_KEYS:
            got, ref = frow[metric], brow[metric]
            print(f"{family + ' n=' + str(n):>22} | {metric:>24} "
                  f"| {ref:8.2f} | {got:8.2f}")
            got_c = min(got, args.regression_cap)
            ref_c = min(ref, args.regression_cap)
            if got_c < ref_c * (1.0 - args.max_regression):
                failures.append(
                    f"{family} n={n}: {metric} regressed "
                    f"{ref:.2f} -> {got:.2f} "
                    f"(> {args.max_regression:.0%} drop)")
            if (family == "complete" and n >= args.floor_n
                    and got < args.min_speedup):
                failures.append(
                    f"{family} n={n}: {metric} {got:.2f} below the "
                    f"{args.min_speedup}x acceptance floor")
        saved = frow["bytes_reduction"]
        if saved < args.min_mem_saved:
            failures.append(
                f"{family} n={n}: bytes_reduction {saved:.3f} below "
                f"{args.min_mem_saved}")

    if failures:
        return failures
    print(f"\nperf gate passed on {len(shared)} rows "
          f"(max regression {args.max_regression:.0%}, "
          f"floor {args.min_speedup}x on complete n>={args.floor_n})")
    return []


def gate_seedbatch(fresh_data, base_data, args):
    fresh = {(r["family"], r["n"], r["scheme"], r["mode"], r["rate"]): r
             for r in fresh_data["rows"]}
    base = {(r["family"], r["n"], r["scheme"], r["mode"], r["rate"]): r
            for r in base_data["rows"]}

    failures = []
    # Report identity is machine-independent: gate every fresh row, shared
    # with the baseline or not. A single non-identical lane means the
    # lockstep executor broke its determinism contract.
    for key, row in sorted(fresh.items()):
        family, n, scheme, mode, rate = key
        if not row.get("identical", False):
            failures.append(
                f"{family} n={n} {scheme} {mode}@{rate}: batched reports "
                f"NOT identical to the scalar BatchRunner")

    # The dedup ratio is also portable (same host, same jobs on both sides
    # of each row), so the fault-free rows carry an absolute floor: a clean
    # R-lane family must run at least --min-batch-speedup times faster than
    # R scalar runs. Faulty rows have an honestly divergence-dependent
    # ratio, so they are only regression-gated against the baseline.
    print(f"{'row':>44} | {'base x':>8} | {'fresh x':>8} | gate")
    floor_rows = 0
    gated_rows = 0
    for key in sorted(fresh):
        family, n, scheme, mode, rate = key
        got = fresh[key]["speedup"]
        label = f"{family} n={n} {scheme} {mode}@{rate}"
        ref = base[key]["speedup"] if key in base else float("nan")
        verdicts = []
        if mode == "none":
            floor_rows += 1
            if got < args.min_batch_speedup:
                verdicts.append("FLOOR")
                failures.append(
                    f"{label}: speedup {got:.2f} below the "
                    f"{args.min_batch_speedup}x fault-free floor")
        if key in base:
            gated_rows += 1
            got_c = min(got, args.batch_regression_cap)
            ref_c = min(ref, args.batch_regression_cap)
            if got_c < ref_c * (1.0 - args.max_regression):
                verdicts.append("REGRESSED")
                failures.append(
                    f"{label}: speedup regressed {ref:.2f} -> {got:.2f} "
                    f"(> {args.max_regression:.0%} drop)")
        print(f"{label:>44} | {ref:8.2f} | {got:8.2f} "
              f"| {' '.join(verdicts) if verdicts else 'ok'}")

    if not failures:
        print(f"\nseed-batch gate passed: identity on {len(fresh)} fresh "
              f"rows, {args.min_batch_speedup}x floor on {floor_rows} "
              f"fault-free rows, regression on {gated_rows} shared rows")
    return failures


def gate_schedbatch(fresh_data, base_data, args):
    """Gates bench_perf --sched-batch (counter-keyed scheduler batching).

    Every row carries three machine-independent facts, and those are what
    gate:
     * "identical" — the batched pass reproduced every lane's scalar
       TaskReport bit for bit (and, on full_share rows, shared the pass
       across ALL lanes while doing so). Gated on every fresh row.
     * rows flagged floor=true by the bench (fault-free counter-keyed
       families whose delivery order provably agrees across lanes) must
       show at least --min-sched-speedup — the whole point of making the
       seed a lane axis.
     * rows flagged full_share=true must report shared == lanes: every
       lane rode one lockstep pass to completion.
    Rows shared with the committed baseline are additionally
    regression-gated on the (portable, same-host-both-sides) speedup
    ratio, clamped like perf_seedbatch.
    """
    def key(r):
        return (r["family"], r["n"], r["scheme"], r["scheduler"],
                r["axis"], r["mode"], r["rate"])

    fresh = {key(r): r for r in fresh_data["rows"]}
    base = {key(r): r for r in base_data["rows"]}

    failures = []
    print(f"{'row':>56} | {'base x':>8} | {'fresh x':>8} | gate")
    floor_rows = 0
    share_rows = 0
    gated_rows = 0
    for k in sorted(fresh):
        family, n, scheme, scheduler, axis, mode, rate = k
        row = fresh[k]
        got = row["speedup"]
        ref = base[k]["speedup"] if k in base else float("nan")
        label = (f"{family} n={n} {scheme} {scheduler} "
                 f"{axis} {mode}@{rate}")
        verdicts = []
        if not row.get("identical", False):
            verdicts.append("IDENTITY")
            failures.append(
                f"{label}: batched reports NOT identical to the scalar "
                f"BatchRunner")
        if row.get("floor", False):
            floor_rows += 1
            if got < args.min_sched_speedup:
                verdicts.append("FLOOR")
                failures.append(
                    f"{label}: speedup {got:.2f} below the "
                    f"{args.min_sched_speedup}x fault-free counter-keyed "
                    f"floor")
        if row.get("full_share", False):
            share_rows += 1
            if row["shared"] != row["lanes"]:
                verdicts.append("SHARE")
                failures.append(
                    f"{label}: shared {row['shared']} != lanes "
                    f"{row['lanes']} — a lane fell off the lockstep pass")
        if k in base:
            gated_rows += 1
            got_c = min(got, args.batch_regression_cap)
            ref_c = min(ref, args.batch_regression_cap)
            if got_c < ref_c * (1.0 - args.max_regression):
                verdicts.append("REGRESSED")
                failures.append(
                    f"{label}: speedup regressed {ref:.2f} -> {got:.2f} "
                    f"(> {args.max_regression:.0%} drop)")
        print(f"{label:>56} | {ref:8.2f} | {got:8.2f} "
              f"| {' '.join(verdicts) if verdicts else 'ok'}")

    if not failures:
        print(f"\nsched-batch gate passed: identity on {len(fresh)} fresh "
              f"rows, {args.min_sched_speedup}x floor on {floor_rows} rows, "
              f"full sharing on {share_rows} rows, regression on "
              f"{gated_rows} shared rows")
    return failures


def gate_e16(fresh_data, base_data, args):
    """Gates the Byzantine sweep (bench_e16_byzantine).

    Everything here is machine-independent: the sweep runs under the
    synchronous scheduler with pinned adversary seeds, so completion rates
    are exact integers over trials, not measurements.
     * every fresh byz_fraction-0 record must complete at 1.0 AND be
       field-for-field identical to the untouched-options reliable run —
       the disabled adversary plan is invisible;
     * rows shared with the committed baseline must agree on
       completion_rate exactly (a drift means the counter-keyed adversary
       or an algorithm changed under a pinned seed);
     * the neutrality ratio (zeroed-params reliable matrix over
       untouched-options wall time) must stay under --max-neutrality;
     * the sweep must still exhibit at least one advice-buyback row and the
       adversarial scheduler must not cost completion.
    """
    failures = []
    for row in fresh_data["records"]:
        label = (f"{row['family']} n={row['n']} {row['scheme']} "
                 f"{row['strategy']}@{row['byz_fraction']}")
        if row["byz_fraction"] == 0:
            if row["completion_rate"] != 1.0:
                failures.append(
                    f"{label}: byz-0 completion_rate "
                    f"{row['completion_rate']} != 1.0")
            if not row.get("identical", False):
                failures.append(
                    f"{label}: byz-0 run NOT identical to the "
                    f"untouched-options reliable run")

    fresh = {(r["family"], r["n"], r["scheme"], r["strategy"],
              r["byz_fraction"]): r for r in fresh_data["records"]}
    base = {(r["family"], r["n"], r["scheme"], r["strategy"],
             r["byz_fraction"]): r for r in base_data["records"]}
    shared = sorted(set(fresh) & set(base))
    drifted = 0
    for key in shared:
        got = fresh[key]["completion_rate"]
        ref = base[key]["completion_rate"]
        if got != ref:
            drifted += 1
            family, n, scheme, strategy, fraction = key
            failures.append(
                f"{family} n={n} {scheme} {strategy}@{fraction}: "
                f"completion_rate drifted {ref} -> {got} under a pinned "
                f"adversary seed")

    ratio = fresh_data["neutrality"]["ratio"]
    if ratio > args.max_neutrality:
        failures.append(
            f"neutrality ratio {ratio:.3f} above {args.max_neutrality} — "
            f"the disabled adversary branch is no longer free")
    if not fresh_data["buyback"]:
        failures.append(
            "no buyback rows: no bits-richer oracle restores completion "
            "over a bits-poorer one anywhere in the sweep")
    for row in fresh_data["scheduler_records"]:
        if not (row["adversarial_ok"] and row["random_ok"]):
            failures.append(
                f"{row['family']} n={row['n']} {row['scheme']}: run under "
                f"the adversarial/random scheduler did not complete")

    if not failures:
        print(f"e16 gate passed: {len(fresh)} fresh records "
              f"(byz-0 identity, exact completion on {len(shared)} shared "
              f"rows, neutrality {ratio:.3f} <= {args.max_neutrality}, "
              f"{len(fresh_data['buyback'])} buyback rows)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True,
                    help="JSON from the run just measured")
    ap.add_argument("--baseline", required=True,
                    help="committed reference JSON")
    ap.add_argument("--max-regression", type=float, default=0.15,
                    help="largest tolerated fractional speedup drop vs "
                         "baseline (default 0.15)")
    ap.add_argument("--regression-cap", type=float, default=8.0,
                    help="speedups are clamped to this value before the "
                         "regression comparison: past it the phase is no "
                         "longer a bottleneck and the ratio (a huge "
                         "denominator over a microsecond numerator) is "
                         "dominated by timer noise")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="absolute advise-speedup floor on gated rows "
                         "(perf_csr only)")
    ap.add_argument("--floor-n", type=int, default=2048,
                    help="complete-family rows with n >= this are held to "
                         "--min-speedup (perf_csr only)")
    ap.add_argument("--min-mem-saved", type=float, default=0.30,
                    help="bytes-per-edge reduction floor on every row "
                         "(perf_csr only)")
    ap.add_argument("--min-batch-speedup", type=float, default=10.0,
                    help="absolute scalar/batched speedup floor on "
                         "fault-free rows (perf_seedbatch only)")
    ap.add_argument("--batch-regression-cap", type=float, default=64.0,
                    help="seed-batch speedups are clamped to this before "
                         "the regression comparison: past it the batched "
                         "side is a few microseconds and the ratio is "
                         "timer noise (perf_seedbatch only)")
    ap.add_argument("--min-sched-speedup", type=float, default=8.0,
                    help="absolute scalar/batched speedup floor on rows the "
                         "bench flags floor=true — fault-free counter-keyed "
                         "families (perf_schedbatch only)")
    ap.add_argument("--max-neutrality", type=float, default=1.30,
                    help="largest tolerated zeroed-params/untouched-options "
                         "wall-time ratio on the reliable matrix "
                         "(e16_byzantine only; the matrix runs in "
                         "microseconds, so the bound is loose)")
    args = ap.parse_args()

    fresh_data = load(args.fresh)
    base_data = load(args.baseline)
    if fresh_data["bench"] != base_data["bench"]:
        sys.exit(f"bench kind mismatch: fresh is {fresh_data['bench']}, "
                 f"baseline is {base_data['bench']}")

    if fresh_data["bench"] == "perf_seedbatch":
        failures = gate_seedbatch(fresh_data, base_data, args)
    elif fresh_data["bench"] == "perf_schedbatch":
        failures = gate_schedbatch(fresh_data, base_data, args)
    elif fresh_data["bench"] == "e16_byzantine":
        failures = gate_e16(fresh_data, base_data, args)
    else:
        failures = gate_csr(fresh_data, base_data, args)

    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
