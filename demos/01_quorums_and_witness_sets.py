"""Dissemination quorums and witness-set selection.

Walks through the quorum arithmetic that underpins all three protocols:
the minimal quorum size, its two defining properties, and the two keyed
witness-selection functions.
"""

from securecast import (MessageId, QuorumParams,
                        check_dissemination_properties,
                        dissemination_quorum_size, w3t, w_active)

print("== Dissemination quorum sizes ==")
for n, t in [(4, 1), (7, 2), (31, 10), (100, 10), (1000, 100)]:
    p = QuorumParams(n, t)
    q = dissemination_quorum_size(p)
    print(f"  n={n:5d} t={t:3d}  ->  q={q:4d}   "
          f"consistency margin 2q-n-t={2 * q - n - t}, "
          f"availability slack n-t-q={n - t - q}")
    assert check_dissemination_properties(p, q)

print()
print("== Witness ranges for a few message ids (n=100, t=10, seed=42) ==")
p = QuorumParams(100, 10)
for sender, seq in [(3, 1), (3, 2), (57, 1)]:
    mid = MessageId(sender, seq)
    range_ = w3t(mid, p, seed=42)
    active = w_active(mid, 3, p, seed=42)
    print(f"  id {mid}:")
    print(f"    W_3T   ({len(range_)} members): {sorted(range_)[:10]}...")
    print(f"    W_act  ({len(active)} members): {sorted(active)}")

print()
print("The same id and seed always map to the same sets; a different seed")
print("reshuffles everything, which is why the faulty set must be chosen")
print("before the seed is drawn.")
mid = MessageId(3, 1)
assert w_active(mid, 3, p, 42) == w_active(mid, 3, p, 42)
assert w_active(mid, 3, p, 43) != w_active(mid, 3, p, 42)
print("ok.")
