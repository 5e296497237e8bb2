"""Shannon entropy of leakage-channel observations (Formula 1).

The paper ranks time-varying channels by the *joint Shannon entropy* of
their independent data fields: each channel C contains fields X_i, and

    H[C(X_1..X_n)] = Σ_i  −Σ_j p(x_ij) log p(x_ij).

Higher joint entropy ⇒ more distinguishing information per snapshot ⇒
better co-residence evidence (Table II's ranking of the V-only group).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence


def field_entropy(observations: Sequence[object]) -> float:
    """Shannon entropy (bits) of one field's observed value distribution.

    Probabilities are estimated empirically from the observations; a
    constant field has zero entropy, a never-repeating field has
    ``log2(n)``.
    """
    if not observations:
        return 0.0
    counts = Counter(observations)
    total = len(observations)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def joint_entropy(fields: Dict[str, Sequence[object]]) -> float:
    """Formula 1: sum of per-field entropies over independent fields.

    ``fields`` maps a field name to its observation sequence; fields are
    treated as independent, as the paper's formula does.
    """
    return sum(field_entropy(obs) for obs in fields.values())


def quantize(values: Sequence[float], bins: int = 64) -> List[int]:
    """Bucket continuous observations for entropy estimation.

    Entropy of raw floats is meaninglessly high (every value unique);
    quantizing to ``bins`` buckets over the observed range yields a
    comparable measure across channels.
    """
    if not values:
        return []
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0 for _ in values]
    span = hi - lo
    width = span / bins
    if width == 0.0:
        # A subnormal span underflows when split into bins; scale the
        # offset by the span first instead.
        return [min(bins - 1, int((v - lo) / span * bins)) for v in values]
    return [min(bins - 1, int((v - lo) / width)) for v in values]
