"""Pinned run outcomes: what a world decides, independent of how its events
are scheduled within a tick.

Each entry of data/outcomes.json is one world at n=13, t=4, p_drop=0.2,
for E, 3T and ACT under no adversary and every strategy that applies,
seeds 0-14, once with the stability oracle on and once with it off (keys
ending in /off), the mode of every Monte Carlo run.  It holds the report's quiescent flag, conflict and
alert counts, final tick, per-process delivery counts, and a hash of its
delivered digests.  Regenerate with `PYTHONPATH=src python3
tests/test_outcomes.py` only for a deliberate change to what a run decides,
and say which entries moved: the script prints each one, pinned -> new,
then how many moved in all and in each field, naming every entry whose
conflict or alert count moved, before it rewrites the file.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from securecast.adversary import ATTACK_STRATEGIES, STRATEGIES
from securecast.simnet import SimConfig, build_world, run_world
from securecast.tracecheck import check_trace

DATA = Path(__file__).parent / "data" / "outcomes.json"

SEEDS = range(15)
_ACT = dict(kappa=2, delta=3)


def _shapes():
    for proto in ("e", "3t", "act"):
        for adversary in ("none",) + STRATEGIES:
            if proto != "act" and adversary in ("regime-split", "seq-burner"):
                continue
            yield proto, adversary


def _config(proto, adversary, seed, stability):
    return SimConfig(protocol=proto, n=13, t=4, adversary=adversary,
                     messages=4, seed=seed, p_drop=0.2, stability=stability,
                     record_trace=False, **(_ACT if proto == "act" else {}))


def outcome(proto, adversary, seed, stability=True):
    report = run_world(_config(proto, adversary, seed, stability))
    digests = sorted(
        (str(mid), sorted((dig.hex(), sorted(pids))
                          for dig, pids in slots.items()))
        for mid, slots in report.delivered_digests.items())
    return [report.quiescent, report.conflicts, report.alerts_raised,
            report.elapsed, [report.deliveries.get(p, 0) for p in range(13)],
            hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16]]


def _key(proto, adversary, seed, stability=True):
    return f"{proto}/{adversary}/{seed}" + ("" if stability else "/off")


def all_outcomes():
    return {_key(p, a, s, on): outcome(p, a, s, on)
            for p, a in _shapes() for s in SEEDS for on in (True, False)}


@pytest.mark.parametrize("proto, adversary", list(_shapes()))
def test_outcomes_match_the_pinned_fingerprint(proto, adversary):
    pinned = json.loads(DATA.read_text())
    for seed in SEEDS:
        key = _key(proto, adversary, seed)
        assert outcome(proto, adversary, seed) == pinned[key], key


@pytest.mark.parametrize("proto, adversary", list(_shapes()))
def test_stability_off_outcomes_match_the_pinned_fingerprint(proto,
                                                             adversary):
    pinned = json.loads(DATA.read_text())
    for seed in SEEDS:
        key = _key(proto, adversary, seed, stability=False)
        assert outcome(proto, adversary, seed, False) == pinned[key], key


@pytest.mark.parametrize("proto, adversary", list(_shapes()))
def test_outcome_worlds_check_clean(proto, adversary):
    """Every pinned world, in both stability modes, rerun with the trace
    on, passes trace-check: in particular no correct process acks another
    digest of an id it has delivered."""
    for seed in SEEDS:
        for on in (True, False):
            world = build_world(replace(_config(proto, adversary, seed, on),
                                        record_trace=True))
            world.run_to_quiescence()
            result = check_trace(world.trace_text())
            assert result.ok, (_key(proto, adversary, seed, on),
                               [str(v) for v in result.violations[:3]])


def test_fingerprint_covers_alerts_and_conflicts():
    """The pinned set is not vacuous: in both stability modes some worlds
    alert, some attacked worlds end in a conflict, and every world
    quiesces."""
    pinned = json.loads(DATA.read_text())
    assert len(pinned) == 2 * 17 * len(SEEDS)
    assert all(v[0] for v in pinned.values())
    for off in (False, True):
        mode = {k: v for k, v in pinned.items() if k.endswith("/off") == off}
        assert len(mode) == 17 * len(SEEDS)
        assert sum(v[2] > 0 for v in mode.values()) > 0
        assert any(v[1] for k, v in mode.items()
                   if k.split("/")[1] in ATTACK_STRATEGIES)


# The fields of an outcome, in order, as the regeneration summary names them
FIELDS = ("quiescent", "conflicts", "alerts", "tick", "deliveries", "hash")


def moved_fields(pinned, new) -> list[str]:
    """The fields in which outcome new differs from pinned; every field
    when either entry is missing."""
    if pinned is None or new is None:
        return list(FIELDS)
    return [f for f, a, b in zip(FIELDS, pinned, new) if a != b]


if __name__ == "__main__":
    pinned = json.loads(DATA.read_text()) if DATA.exists() else {}
    outcomes = all_outcomes()
    moved = {}
    for key in sorted(pinned.keys() | outcomes.keys()):
        if pinned.get(key) != outcomes.get(key):
            print(f"{key}: {pinned.get(key)} -> {outcomes.get(key)}")
            moved[key] = moved_fields(pinned.get(key), outcomes.get(key))
    print(f"{len(moved)} of {len(outcomes)} entries moved: " + ", ".join(
        f"{f} {sum(f in fs for fs in moved.values())}" for f in FIELDS))
    for f in ("conflicts", "alerts"):
        for key in (k for k, fs in moved.items() if f in fs):
            print(f"  {f} moved: {key}")
    entries = sorted(outcomes.items())
    DATA.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                       for k, v in entries) + "\n}\n")
