"""Full client/server round trip over the framed TCP protocol.

Starts a carrier on a loopback port, enrolls a device, authenticates twice
(one genuine sample, one impostor) and shows the carrier-side store holding
only ciphertext material.

Run: python demos/demo_wire_service.py
"""

import random
import tempfile
from pathlib import Path

from psiauth import FeatureMode, FeatureSet, hash_feature
from psiauth import client
from psiauth.service import CarrierConfig, CarrierService

rng = random.Random(3)


def features_of(words):
    return FeatureSet.from_values(
        FeatureMode.CASE_A, (hash_feature(w.encode()) for w in words))


with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    config = CarrierConfig(store_root=workdir / "store")
    with CarrierService(config) as carrier:
        host, port = carrier.address
        print(f"carrier listening on {host}:{port}")

        # --- enrollment
        profile_words = ["wifi:home", "wifi:office", "bt:watch", "bt:car"]
        secret = client.setup_device(
            (host, port), "dana", features_of(profile_words),
            workdir / "dana.secret", bits=512, rng=rng)
        record = next((workdir / "store").glob("*.profile"))
        print(f"stored record: {record.name} ({record.stat().st_size} bytes, "
              f"ciphertexts and a public seed only)")
        print(f"device secret file: {(workdir / 'dana.secret').stat().st_size}"
              f" bytes, permissions 0600")

        # --- genuine sample: three of four features seen again
        sample = features_of(["wifi:home", "bt:watch", "bt:car", "bt:earbuds"])
        decision = client.authenticate((host, port), secret, sample, rng=rng)
        print(f"\ngenuine sample -> {decision.match_count} matches, "
              f"dissimilarity {decision.dissimilarity}, "
              f"{'ACCEPT' if decision.accepted else 'REJECT'}")

        # --- impostor sample: nothing matches
        impostor = features_of(["wifi:cybercafe", "bt:rental-car"])
        decision = client.authenticate((host, port), secret, impostor, rng=rng)
        print(f"impostor sample -> {decision.match_count} matches, "
              f"dissimilarity {decision.dissimilarity}, "
              f"{'ACCEPT' if decision.accepted else 'REJECT'}")
