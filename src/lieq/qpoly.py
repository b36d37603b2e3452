"""Polynomials in q with integer coefficients."""

from __future__ import annotations


class QPolynomial:
    """Immutable integer polynomial in q, stored as {degree: coefficient}
    with no explicit zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for deg, c in coeffs.items():
                if c:
                    if deg < 0:
                        raise ValueError("negative degree")
                    clean[int(deg)] = int(c)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *_):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            out[deg] = out.get(deg, 0) + c
        return QPolynomial(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            out[deg] = out.get(deg, 0) - c
        return QPolynomial(out)

    def evaluate(self, value: int = 1) -> int:
        return sum(c * value**d for d, c in self.coeffs.items())

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def to_json(self) -> dict:
        return {str(d): c for d, c in sorted(self.coeffs.items())}

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for deg in sorted(self.coeffs):
            c = self.coeffs[deg]
            if deg == 0:
                terms.append(str(c))
            else:
                q = "q" if deg == 1 else f"q^{deg}"
                if c == 1:
                    terms.append(q)
                elif c == -1:
                    terms.append(f"-{q}")
                else:
                    terms.append(f"{c}*{q}")
        out = " + ".join(terms)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"QPolynomial({self})"
