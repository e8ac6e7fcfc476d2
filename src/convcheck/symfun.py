"""Symmetric functions in two letters, generic over the coefficient ring.

The two letters a, b may come from any ring whose elements support +,
-, * and **, which in practice means :class:`~convcheck.arith.MultiPoly`
(letters x1, x2), a context's
:class:`~convcheck.identities.core.LetterElem` (letters u, v, or lam1,
lam2 in a root ring) and :class:`~convcheck.quadext.QuadExtElem` (a
root pair's lam1, lam2).

sym_ehp('h'|'p', k, a, b) gives the complete homogeneous and power-sum
bases at the two letters: h_k is the complete homogeneous sum
a^k + a^(k-1) b + ... + b^k, and p_k is the power sum a^k + b^k (so
p_0 = 2).  The elementary basis at two letters is just e_1 = a + b and
e_2 = a b, which the anchors write as the symbols ``e1`` and ``e2``.
"""

from __future__ import annotations

__all__ = ["sym_ehp"]


def sym_ehp(kind: str, k: int, a, b):
    """Complete homogeneous / power-sum basis at two letters."""
    if k < 0:
        raise ValueError(f"sym_ehp: index must be non-negative, got {k}")
    if kind == "h":
        # h_j = a h_(j-1) + b^j: O(k) ring multiplications, not O(k^2)
        acc = bpow = a ** 0
        for _ in range(k):
            bpow = bpow * b
            acc = a * acc + bpow
        return acc
    if kind == "p":
        return a ** k + b ** k
    raise ValueError(f"unknown basis kind {kind!r}; choose h or p")
