"""Privacy-preserving implicit authentication from set-intersection cardinality.

A device proves that a freshly sampled behavioral feature set is similar to a
profile the carrier stores only in encrypted form.  The carrier learns the
number of matching features (or a weighted/L1 variant of it) and nothing
else; after set-up the device itself keeps nothing that reveals the profile.

Layers:

* ``paillier``: the homomorphic cryptosystem.
* ``profiles``: device-side set-up, blinding solvers, profile/secret records.
* ``protocol``: the three-message challenge/response and the decision rule.
* ``pool``: the persistent fork pool for set-up and per-entry powers.
* ``similarity``: finite-support integer similarity functions (Case B).
* ``oracles``: plaintext reference scoring, independent of the crypto path.
* ``wire``/``service``/``client``: framed TCP transport, carrier and device.
* ``bench``: timing harness over profile sizes.
"""

from .paillier import (
    KeyGenerationError,
    MalformedCiphertextError,
    PaillierPublicKey,
    PaillierSecretKey,
    add_cipher,
    decrypt,
    draw_unit,
    encrypt,
    keygen,
    scalar_pow,
)
from .profiles import (
    BlindingSolution,
    DegenerateSystemError,
    DeviceSecret,
    DuplicateFeatureError,
    EncryptedProfile,
    FeatureMode,
    FeatureSet,
    SetupAudit,
    blinded_randomizers,
    build_encrypted_profile,
    decode_numeric,
    encode_numeric,
    hash_feature,
    poly_from_roots,
    solve_blinding,
    solve_blinding_gaussian,
)
from .protocol import (
    INFINITE,
    AuthChallenge,
    AuthDecision,
    AuthResponseEntry,
    ModeMismatchError,
    ProtocolError,
    SessionError,
    SessionState,
    carrier_challenge,
    carrier_score,
    decide,
    device_respond,
    device_respond_weighted,
    respond,
    response_values,
)
from .similarity import SimilarityFunction
from .oracles import oracle_intersection, oracle_l1, oracle_weighted
from .bench import BenchRecord, bench_run

__version__ = "0.1.0"

__all__ = [
    "AuthChallenge",
    "AuthDecision",
    "AuthResponseEntry",
    "BenchRecord",
    "BlindingSolution",
    "DegenerateSystemError",
    "DeviceSecret",
    "DuplicateFeatureError",
    "EncryptedProfile",
    "FeatureMode",
    "FeatureSet",
    "INFINITE",
    "KeyGenerationError",
    "MalformedCiphertextError",
    "ModeMismatchError",
    "PaillierPublicKey",
    "PaillierSecretKey",
    "ProtocolError",
    "SessionError",
    "SessionState",
    "SetupAudit",
    "SimilarityFunction",
    "add_cipher",
    "bench_run",
    "blinded_randomizers",
    "build_encrypted_profile",
    "carrier_challenge",
    "carrier_score",
    "decide",
    "decode_numeric",
    "decrypt",
    "device_respond",
    "device_respond_weighted",
    "draw_unit",
    "encode_numeric",
    "encrypt",
    "hash_feature",
    "keygen",
    "oracle_intersection",
    "oracle_l1",
    "oracle_weighted",
    "poly_from_roots",
    "respond",
    "response_values",
    "scalar_pow",
    "solve_blinding",
    "solve_blinding_gaussian",
]
