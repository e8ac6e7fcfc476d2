"""Symmetric functions in two letters, generic over the coefficient ring.

The two letters a, b may come from any ring whose elements support +,
-, * and **, which in practice means :class:`~convcheck.arith.MultiPoly`
(letters x1, x2), a context's
:class:`~convcheck.identities.core.LetterElem` (letters u, v, or lam1,
lam2 in a root ring) and :class:`~convcheck.quadext.QuadExtElem` (a
root pair's lam1, lam2).

sym_ehp('e'|'h'|'p', k, a, b) gives the elementary, complete
homogeneous, and power-sum bases at the two letters: e_k vanishes for
k > 2, h_k is the complete homogeneous sum a^k + a^(k-1) b + ... + b^k,
and p_k is the power sum a^k + b^k (so p_0 = 2).
"""

from __future__ import annotations

__all__ = ["sym_ehp"]


def sym_ehp(kind: str, k: int, a, b):
    """Elementary / complete homogeneous / power-sum basis at two letters."""
    if k < 0:
        raise ValueError(f"sym_ehp: index must be non-negative, got {k}")
    if kind == "e":
        if k == 0:
            # empty product: a**0 is one in both supported rings, including a = 0
            return a ** 0
        if k == 1:
            return a + b
        if k == 2:
            return a * b
        return a * 0
    if kind == "h":
        # h_j = a h_(j-1) + b^j: O(k) ring multiplications, not O(k^2)
        acc = bpow = a ** 0
        for _ in range(k):
            bpow = bpow * b
            acc = a * acc + bpow
        return acc
    if kind == "p":
        return a ** k + b ** k
    raise ValueError(f"unknown basis kind {kind!r}; choose e, h, or p")
