"""The polynomial arithmetic ``qortho.polyfam.RationalPoly`` had before
``polyfam.coeffs`` ran the coordinate recurrence onto the monomials.

``Poly`` is ``RationalPoly`` with its old arithmetic: ``x()``, ``+ - * / **``
and ``lead()``, the methods as they were, their results built as ``Poly``.
A plain ``RationalPoly`` or an int or Fraction may be the other operand.
``coeffs`` is ``polyfam.coeffs`` as it was: p_n evaluated at the polynomial
x through the family's recurrence, wrapped back into a ``RationalPoly``.
Tests compare ``polyfam.coeffs`` with it by ``repr``, and build the
polynomials they check with ``Poly``.
"""

from fractions import Fraction

from qortho import polyfam
from qortho.polyfam import RationalPoly, validate
from qortho.qcore import ensure_exact


class Poly(RationalPoly):
    """A RationalPoly with exact arithmetic."""

    __slots__ = ()

    @classmethod
    def x(cls):
        return cls((0, 1))

    def _coerce(self, other):
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(out)
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c / Fraction(other) for c in self.coeffs))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Poly((Fraction(1),))
        for _ in range(n):
            out = out * self
        return out

    def lead(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)


def coeffs(fam, n):
    """Exact coefficient vector of p_n: the family evaluated at Poly.x()."""
    ensure_exact(**validate(fam).params())
    return RationalPoly(polyfam.eval(fam, n, Poly.x()).coeffs)
