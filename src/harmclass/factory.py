"""Constructors for class members.

Membership of the analytic part is operationalized through the coefficient
budget

    sum_{n>=2} n^delta ((n - alpha)/(1 - alpha)) |a_n| <= 1,

which is a sufficient condition, not a characterization: everything this
module certifies is in the class, but the class may contain members the
certificate cannot see.  The weights and the sampler's envelope are computed
once per (params, degree) and kept read-only; ``budget_weights`` copies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import (
    ClassParams,
    DilatationSpec,
    HarmonicMapSpec,
    IDENT_TOL,
    harmonic_map,
)
from .series import TruncatedSeries, series_to_json

__all__ = [
    "MembershipCertificate",
    "CERT_TOL",
    "budget_weights",
    "certify",
    "extremal_h",
    "sample_certified_h",
    "build_member",
    "member_to_json",
]

#: Slack on the unit budget when deciding ``ok`` (absorbs rescaling round-off).
CERT_TOL = 1e-12


@dataclass(frozen=True)
class MembershipCertificate:
    budget_sum: float
    ok: bool


def budget_weights(params: ClassParams, n_max: int) -> np.ndarray:
    """Weights n^delta (n - alpha)/(1 - alpha) for n = 2..n_max, as a fresh
    writable array; a weight beyond the float range is inf."""
    return _budget_factors(params, n_max)[0].copy()


@lru_cache(maxsize=32)
def _budget_factors(params: ClassParams, n_max: int) -> tuple:
    """Read-only budget weights and sampler envelope n^(-delta-2) for
    n = 2..n_max, kept for the 32 most recently used (params, n_max)."""
    n = np.arange(2, n_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        weights = n**params.delta * (n - params.alpha) / (1.0 - params.alpha)
        envelope = n ** (-params.delta - 2.0)
    for a in (weights, envelope):
        a.setflags(write=False)
    return weights, envelope


def certify(h: TruncatedSeries, params: ClassParams) -> MembershipCertificate:
    """Evaluate the coefficient budget of a normalized analytic part."""
    if not h.is_normalized():
        raise ValueError("certify requires a normalized series (a0 = 0, a1 = 1)")
    if h.order < 2:
        return MembershipCertificate(0.0, True)
    weights = budget_weights(params, h.order)
    mags = np.abs(h.coeffs[2:])
    # a zero coefficient adds exactly 0, also where its weight is inf
    weights[mags == 0] = 0.0
    terms = weights * mags
    big = np.isinf(weights)
    if big.any():  # a weight past the float range can still give a small term
        n = np.flatnonzero(big) + 2.0
        log_weights = params.delta * np.log(n) + np.log((n - params.alpha) / (1.0 - params.alpha))
        with np.errstate(over="ignore"):
            terms[big] = np.exp(log_weights + np.log(mags[big]))
    budget = float(np.sum(terms))
    return MembershipCertificate(budget, budget <= 1.0 + CERT_TOL)


def extremal_h(n: int, theta: float, params: ClassParams) -> TruncatedSeries:
    """The budget-saturating analytic part z + ((1-alpha)/(n^delta (n-alpha))) e^{i theta} z^n."""
    if n < 2:
        raise ValueError("extremal index must be >= 2")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[1] = 1.0
    coeffs[n] = (
        (1.0 - params.alpha)
        / (n**params.delta * (n - params.alpha))
        * np.exp(1j * theta)
    )
    return TruncatedSeries(coeffs)


def sample_certified_h(
    params: ClassParams, max_degree: int, fill: float, rng_seed: int
) -> TruncatedSeries:
    """Draw a random analytic part whose budget equals ``fill`` exactly.

    Magnitudes follow the decaying envelope n^(-delta-2) before rescaling, so
    the implied infinite-series tail beyond max_degree is negligible and the
    certificate stays honest under truncation.  Deterministic per seed.

    A delta at which a weight overflows, or the envelope leaves the normal
    float range, for some n <= max_degree raises ``ValueError``.
    """
    if params.delta < 0:
        raise ValueError("sampler requires delta >= 0")
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    if not 0.0 <= fill <= 1.0:
        raise ValueError("fill must be in [0, 1]")
    weights, envelope = _budget_factors(params, max_degree)
    if not (np.isfinite(weights[-1]) and envelope[-1] >= np.finfo(float).tiny):
        bits = math.log2(max_degree)
        top = math.log2((max_degree - params.alpha) / (1.0 - params.alpha))
        largest = min((1024.0 - top) / bits, 1022.0 / bits - 2.0)
        raise ValueError(
            f"delta = {params.delta} is too large for the sampler: at max_degree "
            f"{max_degree} it supports delta up to about {largest:.4g}"
        )
    rng = np.random.default_rng(rng_seed)
    mags = rng.uniform(0.0, 1.0, size=envelope.size) * envelope
    phases = rng.uniform(0.0, 2.0 * math.pi, size=envelope.size)
    coeffs = np.zeros(max_degree + 1, dtype=complex)
    coeffs[1] = 1.0
    raw_budget = float(np.sum(weights * mags))
    if fill > 0.0 and raw_budget > 0.0:
        coeffs[2:] = (fill / raw_budget) * mags * np.exp(1j * phases)
    return TruncatedSeries(coeffs)


def build_member(h: TruncatedSeries, w: DilatationSpec, params: ClassParams) -> HarmonicMapSpec:
    """Assemble a certified member with g derived from the dilatation."""
    cert = certify(h, params)
    if not cert.ok:
        raise ValueError(
            f"analytic part is not certified: budget {cert.budget_sum:.6g} > 1"
        )
    if abs(w.beta - params.beta) > IDENT_TOL:
        raise ValueError(
            f"dilatation beta {w.beta} does not match class beta {params.beta}"
        )
    return harmonic_map(h, w)


def member_to_json(
    member: HarmonicMapSpec, params: ClassParams, seed: int | None = None
) -> dict:
    """Serialized member: series payloads plus a parameter/seed header."""
    record = {
        "params": {"alpha": params.alpha, "beta": params.beta, "delta": params.delta},
        "seed": seed,
        "h": series_to_json(member.h),
        "g": series_to_json(member.g),
        "dilatation": {
            "kind": member.w.kind,
            "beta": member.w.beta,
            "mu": member.w.mu,
            "phi": member.w.phi,
        },
    }
    if member.w.kind == "custom":
        record["dilatation"]["series"] = series_to_json(member.w.series)
    return record
