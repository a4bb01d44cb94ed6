"""Fixed inputs of the three workloads.

Nothing here depends on the seed: the seed only reorders these inputs
(``points``) or the scheme list (``sweep``), and ``verify-full`` always
runs at the suite's own seed.
"""

from __future__ import annotations

ALL_SCHEMES = (
    "ds-mmse-fading", "ds-mmse-nofading", "ds-opt-fading", "ds-opt-nofading",
    "lds-mmse-nofading", "lds-opt-fading", "lds-opt-nofading",
    "lds-sumf-fading", "lds-sumf-nofading", "lds-zf-nofading",
)

# sweep: the paper's figure, load at Eb/N0 = 10 dB for the eight
# distinct curves {lds,ds}-{sumf/mmse,opt}-{fading,nofading}
SWEEP_SCHEMES = (
    "lds-sumf-fading", "lds-sumf-nofading", "lds-opt-fading", "lds-opt-nofading",
    "ds-mmse-fading", "ds-mmse-nofading", "ds-opt-fading", "ds-opt-nofading",
)
SWEEP_ETA_DB = 10.0
SWEEP_LOADS = (0.1, 10.0)
SWEEP_POINTS = 48

# points: beta in half-decades 0.01..1000 and gamma in decades
# 1e-3..1e8, plus the edges of the stated domain
POINT_BETAS = tuple(sorted({10.0 ** (k / 2) for k in range(-4, 7)}
                           | {1e-6, 0.1, 100.0, 1e4}))
POINT_GAMMAS = tuple(sorted({10.0 ** k for k in range(-3, 9)}
                            | {1e-12, 1e100, 1e300}))
# one lds-opt-fading call at beta = 1e4 runs about 4 s of O(beta)
# series terms before failing, more than the rest of the workload
POINT_EXCLUDED = {("lds-opt-fading", 1e4)}


def point_calls() -> list[tuple[str, float, float]]:
    """Every (scheme, beta, gamma) of the points workload, in a fixed order."""
    return [(s, b, g) for s in ALL_SCHEMES for b in POINT_BETAS for g in POINT_GAMMAS
            if (s, b) not in POINT_EXCLUDED]


VERIFY_SEED = 42
