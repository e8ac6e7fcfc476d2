"""Symmetric functions in two letters, generic over the coefficient ring.

The two letters a, b may come from any ring whose elements support +,
-, * and **, which in practice means :class:`~convcheck.arith.MultiPoly`
(letters x1, x2), a context's
:class:`~convcheck.identities.core.LetterElem` (letters u, v, the
conjugate roots (Sig +- D)/2 in a root ring) and
:class:`~convcheck.quadext.QuadExtElem` (two roots written as
a + b*sqrt(d)).

sym_ehp('h'|'p', k, a, b) gives the complete homogeneous and power-sum
bases at the two letters: h_k is the complete homogeneous sum
a^k + a^(k-1) b + ... + b^k, and p_k is the power sum a^k + b^k (so
p_0 = 2).  The elementary basis at two letters is just e_1 = a + b and
e_2 = a b, which the anchors write as the symbols ``e1`` and ``e2``.

Each basis is a recurrence, stated once in :func:`ehp_step`:
h_j = a h_(j-1) + b^j and p_j = a^j + b^j, with a^j = a a^(j-1) and
b^j = b b^(j-1).  :func:`sym_ehp` takes k steps of it; the notation's
``h_j(a, b)``/``p_j(a, b)`` keep one step per j in a context's memo.
Every value is formed by ring products, never by the closed forms of a
context's ``S``, ``phi`` and letter powers, so R1.1 and R1.2 check those
closed forms against it.
"""

from __future__ import annotations

__all__ = ["ehp_step", "sym_ehp"]


def ehp_step(kind: str, a, b, state=None):
    """The state (value, a^j, b^j) of h_j or p_j at j from the state at
    j - 1, or at j = 0 when ``state`` is None; the value is its first
    item.  Each step forms the powers by one product each (h_j needs
    b^j alone, so its a^j stays 1)."""
    if state is None:
        one = a ** 0
        return (one if kind == "h" else one + one), one, one
    value, apow, bpow = state
    bpow = bpow * b
    if kind == "h":
        return a * value + bpow, apow, bpow
    apow = apow * a
    return apow + bpow, apow, bpow


def sym_ehp(kind: str, k: int, a, b):
    """Complete homogeneous / power-sum basis at two letters."""
    if k < 0:
        raise ValueError(f"sym_ehp: index must be non-negative, got {k}")
    if kind not in ("h", "p"):
        raise ValueError(f"unknown basis kind {kind!r}; choose h or p")
    state = ehp_step(kind, a, b)
    for _ in range(k):
        state = ehp_step(kind, a, b, state)
    return state[0]
