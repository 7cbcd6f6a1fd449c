"""Case A walkthrough: authenticate on overlapping nominal features.

The device enrolls a profile of app names, later proves a fresh sample
overlaps it, and the carrier learns nothing beyond the overlap count.

Run: python demos/demo_case_a_intersection.py
"""

import random

from psiauth import (
    FeatureMode,
    FeatureSet,
    build_encrypted_profile,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond,
    hash_feature,
    oracle_intersection,
)

rng = random.Random(2024)

# --- set-up: the device turns its usage history into an encrypted profile

profile_apps = ["mail", "maps", "camera", "podcasts", "terminal"]
profile_features = FeatureSet.from_values(
    FeatureMode.CASE_A, (hash_feature(a.encode()) for a in profile_apps))

# 512-bit keys keep the demo quick; production uses 1024.
profile, secret = build_encrypted_profile("alice", profile_features, 512, rng)

print(f"profile: {len(profile_apps)} features -> "
      f"{len(profile.enc_coeffs)} encrypted coefficients + "
      f"{len(profile.blinded_randomizers)} blinded randomizer powers")
print(f"device keeps: d ({secret.secret_exponent.bit_length()} bits), "
      f"R' ({secret.anchor.bit_length()} bits). Nothing else survived set-up.")

# --- authentication: a fresh sample with partial overlap

sample_apps = ["mail", "maps", "camera", "chess"]
sample = FeatureSet.from_values(
    FeatureMode.CASE_A, (hash_feature(a.encode()) for a in sample_apps))

# The device declares its sample size; the carrier opens the session for it.
challenge, session = carrier_challenge(profile, rng, sample_size=sample.size)
entries = device_respond(secret, challenge, sample, rng)
print(f"\ndevice declares {sample.size} values and sends {len(entries)} "
      f"shuffled (cipher, ratio) pairs; each value is a unit and reveals "
      f"nothing on its own")

matches = carrier_score(session, entries)
decision = decide(matches, session)

print(f"carrier counts {matches} matches "
      f"(plaintext oracle agrees: "
      f"{oracle_intersection(profile_features.values, sample.values)})")
print(f"dissimilarity 1/|intersection| = {decision.dissimilarity}, "
      f"threshold ceil(5/2) = 3 -> {'ACCEPT' if decision.accepted else 'REJECT'}")

# --- a stranger's sample is rejected with an infinite dissimilarity

stranger = FeatureSet.from_values(
    FeatureMode.CASE_A,
    (hash_feature(a.encode()) for a in ["poker", "darts", "torrents"]))
challenge, session = carrier_challenge(profile, rng, sample_size=stranger.size)
entries = device_respond(secret, challenge, stranger, rng)
verdict = decide(carrier_score(session, entries), session)
print(f"\nstranger sample: {verdict.match_count} matches, "
      f"dissimilarity {verdict.dissimilarity} -> "
      f"{'ACCEPT' if verdict.accepted else 'REJECT'}")
