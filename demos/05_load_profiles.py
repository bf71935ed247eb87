"""Measured per-process load versus the closed-form predictions.

Load is the busiest process's witness/peer access count divided by the
number of multicast messages.  As the random message set grows, 3T tends
to (2t+1)/n because each message touches a random 2t+1 slice of a random
3t+1 range, and ACT tends to kappa(delta+1)/n.  Failure runs stay under
(3t+1)/n and (kappa(delta+1)+3t+1)/n.
"""

from securecast import (AnalysisParams, SimConfig, build_world,
                        failure_free_load, failure_load_bound, measured_load)

N, T, KAPPA, DELTA = 100, 10, 3, 5
params = AnalysisParams(N, T, KAPPA, DELTA)


def run(protocol, messages, num_faulty=0, **kw):
    cfg = SimConfig(protocol=protocol, n=N, t=T, messages=messages,
                    adversary="silent" if num_faulty else "none",
                    num_faulty=num_faulty, senders="uniform",
                    message_spacing=1, stability=False, record_trace=False,
                    seed=7, **kw)
    report = build_world(cfg).run_to_quiescence()
    return measured_load(report)


print(f"{'messages':>9} {'3T meas':>9} {'3T pred':>9} {'ACT meas':>9} {'ACT pred':>9}")
for m in (100, 1000, 5000):
    l3 = run("3t", m)
    la = run("act", m, kappa=KAPPA, delta=DELTA)
    print(f"{m:>9} {l3:>9.4f} {failure_free_load('3t', params):>9.4f} "
          f"{la:>9.4f} {failure_free_load('act', params):>9.4f}")

print("\nWith 4 silent faulty processes (timeouts widen the witness contact):")
f3 = run("3t", 2000, num_faulty=4)
fa = run("act", 2000, num_faulty=4, kappa=KAPPA, delta=DELTA)
print(f"  3T  measured {f3:.4f} <= bound {failure_load_bound('3t', params):.2f}")
print(f"  ACT measured {fa:.4f} <= bound {failure_load_bound('act', params):.2f}")

print("\nE contacts every process by design; its q/n figure in the analysis")
print("tables is the minimal-contact extension, not the protocol as run.")
