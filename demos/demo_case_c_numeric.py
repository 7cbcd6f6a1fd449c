"""Case C walkthrough: bounded numeric vectors scored by L1 distance.

Numeric features (hourly screen-on counts, say) are unary pair-encoded into
sets; the intersection cardinality then satisfies

    |X| + |Y| - 2|X ∩ Y|  ==  sum_i |u_i - v_i|

so the carrier obtains the L1 distance while only ever counting matches.

Run: python demos/demo_case_c_numeric.py
"""

import random

from psiauth import (
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    decode_numeric,
    device_respond,
    encode_numeric,
    oracle_l1,
)

rng = random.Random(11)

CAP = 6  # public per-entry bound
usual_day = (4, 2, 0, 5)   # the enrolled usage vector u
fresh_day = (3, 2, 1, 5)   # today's sample v

x = encode_numeric(usual_day, CAP)
y = encode_numeric(fresh_day, CAP)
print(f"u = {usual_day} encodes to X = {x.values} (|X| = {x.size})")
print(f"v = {fresh_day} encodes to Y = {y.values} (|Y| = {y.size})")
assert decode_numeric(x) == usual_day  # encoding is invertible

profile, secret = build_encrypted_profile("carol", x, 512, rng, threshold=3)

# The device declares |Y|; the carrier scores with that, not the entry count.
challenge, session = carrier_challenge(profile, rng, sample_size=y.size)
entries = device_respond(secret, challenge, y, rng)
matches = carrier_score(session, entries)
decision = decide(matches, session)

print(f"\ndevice declares |Y| = {session.sample_size} and sends "
      f"{len(entries)} entries")
print(f"matches = sum of min(u_i, v_i) = {matches}")
print(f"L1 via |X| + |Y| - 2*matches = {x.size} + {y.size} - {2 * matches} "
      f"= {decision.dissimilarity}")
print(f"plaintext oracle: {oracle_l1(usual_day, fresh_day)}")
print(f"threshold 3 -> {'ACCEPT' if decision.accepted else 'REJECT'}")
