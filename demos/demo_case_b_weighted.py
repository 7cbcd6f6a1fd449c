"""Case B walkthrough: correlated features scored by a similarity kernel.

Cell towers near each other should count as partial matches.  The device
emits one response entry per unit of similarity weight, so the carrier's
match count becomes the double sum of similarities between profile and
sample, without either side revealing its set.

Run: python demos/demo_case_b_weighted.py
"""

import random

from psiauth import (
    FeatureMode,
    FeatureSet,
    SimilarityFunction,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond_weighted,
    oracle_weighted,
)

rng = random.Random(7)

# Towers on a line; adjacency is worth 1, identity 2 (a tent kernel).
TOWERS = list(range(100, 111))


def tent(z, y):
    return max(0, 2 - abs(z - y))


sim = SimilarityFunction.from_entries(
    [(y, z, tent(z, y)) for y in TOWERS for z in TOWERS if tent(z, y) > 0],
    max_weight=2)

profile_towers = [102, 105, 108]
sample_towers = [104, 106]

features = FeatureSet.from_values(FeatureMode.CASE_B, profile_towers)
profile, secret = build_encrypted_profile("bob", features, 512, rng,
                                          threshold=2)

# The device declares its sample's size, not its weighted entry count.
sample = FeatureSet.from_values(FeatureMode.CASE_B, sample_towers)
challenge, session = carrier_challenge(profile, rng, sample_size=sample.size)
entries = device_respond_weighted(secret, challenge, sample, sim, rng)

total_weight = sum(sim.weight(z, y) for y in sample_towers for z in TOWERS)
print(f"profile towers: {profile_towers}")
print(f"sample towers:  {sample_towers}")
print(f"device declares {session.sample_size} values and sends "
      f"{len(entries)} entries "
      f"(= total support weight {total_weight} of the sample)")

score = carrier_score(session, entries)
expected = oracle_weighted(profile_towers, sample_towers, sim)
print(f"carrier's weighted match total: {score} (oracle: {expected})")
print("  tower 105 is adjacent to both 104 and 106 -> weight 1 + 1")

decision = decide(score, session)
print(f"threshold 2 -> {'ACCEPT' if decision.accepted else 'REJECT'} "
      f"(dissimilarity {decision.dissimilarity})")
