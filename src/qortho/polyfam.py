"""Orthogonal polynomial families driven by one three-term recurrence engine.

Every family is a frozen :class:`FamilyId` tag plus parameters; the engine
computes p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1} with family-specific
coefficient functions.  Evaluation is duck-typed over the point, so the same
code path serves floats, exact rationals, numpy arrays and
:class:`RationalPoly` values (which is how exact coefficient vectors are
obtained).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .qcore import (
    IrrationalParameterError,
    ParameterError,
    div,
    is_exact,
    q_bracket,
    q_binomial,
    q_double_factorial_odd,
    q_pochhammer,
)


class RationalPoly:
    """Dense univariate polynomial with exact rational coefficients.

    coeffs[i] is the x^i coefficient; the zero polynomial has no coefficients.
    Arithmetic stays exact; evaluation accepts rational or float scalars.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        out = []
        for c in coeffs:
            if isinstance(c, float):
                raise IrrationalParameterError(
                    "RationalPoly coefficients must be rational, got %r" % (c,)
                )
            out.append(Fraction(c))
        while out and out[-1] == 0:
            out.pop()
        self.coeffs = tuple(out)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, x):
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPoly((other,))
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
        return RationalPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly(tuple(-c for c in self.coeffs))

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
                return RationalPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return RationalPoly(out)
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c / Fraction(other) for c in self.coeffs))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RationalPoly((Fraction(1),))
        for _ in range(n):
            out = out * self
        return out

    def deflate(self, root):
        """Synthetic division by (x - root): returns (quotient, remainder)."""
        root = Fraction(root)
        acc = Fraction(0)
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        if not out:
            return RationalPoly(), Fraction(0)
        rem = out.pop()
        out.reverse()
        return RationalPoly(out), rem

    def lead(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __repr__(self):
        return "RationalPoly(%r)" % (self.coeffs,)


@dataclass(frozen=True)
class FamilyId:
    tag: str
    q: object = None
    beta: object = None
    y: object = None
    rho: object = None

    def label(self):
        params = ",".join(
            "%s=%s" % (name, getattr(self, name))
            for name in ("q", "beta", "y", "rho")
            if getattr(self, name) is not None
        )
        return "%s(%s)" % (self.tag, params) if params else self.tag


def QHermite(q):
    return FamilyId("qhermite", q=q)


def Rogers(beta, q):
    return FamilyId("rogers", q=q, beta=beta)


def ASC(y, rho, q):
    """Al-Salam--Chihara-type family: three-term recurrence with shift rho y q^n."""
    return FamilyId("asc", q=q, y=y, rho=rho)


def BigB(q):
    """Auxiliary family in the conditioning variable; argument plays the role of y."""
    return FamilyId("bigb", q=q)


def ChebT():
    return FamilyId("chebt")


def ChebU():
    return FamilyId("chebu")


def ChebT_hat(q):
    return FamilyId("chebt_hat", q=q)


def ChebU_hat(q):
    return FamilyId("chebu_hat", q=q)


def ClassicalHermite():
    return FamilyId("hermite")


def Kesten(y, rho):
    return FamilyId("kesten", y=y, rho=rho)


def KestenHat(y, rho, q):
    """Rescaled Kesten family k_n(x sqrt(1-q) | y sqrt(1-q), rho) / (1-q)^{n/2}."""
    return FamilyId("kesten_hat", q=q, y=y, rho=rho)


_UNIT_Q_OK = {"qhermite", "rogers", "asc", "bigb"}


def validate(fam):
    if fam.q is not None:
        qf = float(fam.q)
        if fam.tag in ("chebt_hat", "chebu_hat", "kesten_hat"):
            if not -1.0 < qf < 1.0:
                raise ParameterError(
                    "%s requires -1 < q < 1, got q=%r" % (fam.tag, fam.q)
                )
        elif not (abs(qf) < 1.0 or (qf == 1.0 and fam.tag in _UNIT_Q_OK)):
            raise ParameterError("%s requires |q| <= 1, got q=%r" % (fam.tag, fam.q))
    if fam.beta is not None and not abs(float(fam.beta)) < 1.0:
        raise ParameterError("%s requires |beta| < 1, got %r" % (fam.tag, fam.beta))
    if fam.rho is not None and not abs(float(fam.rho)) < 1.0:
        raise ParameterError("%s requires |rho| < 1, got %r" % (fam.tag, fam.rho))
    return fam


def _abc(fam):
    """Recurrence coefficients (A_n, B_n, C_n) for p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}."""
    tag = fam.tag
    if tag == "qhermite":
        q = fam.q
        return lambda n: (1, 0, q_bracket(n, q))
    if tag == "rogers":
        q, b = fam.q, fam.beta
        # C_0 is multiplied by p_{-1} = 0; short-circuit keeps q^{n-1} well-defined.
        return lambda n: (
            1 - b * q ** n,
            0,
            0 if n == 0 else (1 - b * b * q ** (n - 1)) * q_bracket(n, q),
        )
    if tag == "asc":
        # At q = 1 this reduces to the Gaussian-conditional recurrence
        # G_{n+1} = (x - rho y) G_n - n (1 - rho^2) G_{n-1}.
        q, y, r = fam.q, fam.y, fam.rho
        return lambda n: (
            1,
            -r * y * q ** n,
            0 if n == 0 else (1 - r * r * q ** (n - 1)) * q_bracket(n, q),
        )
    if tag == "bigb":
        q = fam.q
        return lambda n: (
            -(q ** n),
            0,
            0 if n == 0 else -(q ** (n - 1)) * q_bracket(n, q),
        )
    if tag == "chebt":
        return lambda n: (1, 0, 0) if n == 0 else (2, 0, 1)
    if tag == "chebu":
        return lambda n: (2, 0, 0) if n == 0 else (2, 0, 1)
    if tag == "chebt_hat":
        q = fam.q
        c = div(1, 1 - q)
        return lambda n: (Fraction(1, 2), 0, 0) if n == 0 else (1, 0, c)
    if tag == "chebu_hat":
        q = fam.q
        c = div(1, 1 - q)
        return lambda n: (1, 0, 0) if n == 0 else (1, 0, c)
    if tag == "hermite":
        return lambda n: (1, 0, n)
    if tag == "kesten":
        y, r = fam.y, fam.rho
        def kest(n):
            if n == 0:
                return (1, -r * y, 0)
            if n == 1:
                return (1, 0, 1 - r * r)
            return (1, 0, 1)
        return kest
    if tag == "kesten_hat":
        q, y, r = fam.q, fam.y, fam.rho
        c = div(1, 1 - q)
        def kest_hat(n):
            if n == 0:
                return (1, -r * y, 0)
            if n == 1:
                return (1, 0, (1 - r * r) * c)
            return (1, 0, c)
        return kest_hat
    raise ParameterError("unknown family tag %r" % (tag,))


def eval_all(fam, n_max, x):
    """[p_0(x), ..., p_{n_max}(x)]; x may be scalar, Fraction, numpy array or RationalPoly."""
    validate(fam)
    abc = _abc(fam)
    one = x * 0 + 1
    out = [one]
    if n_max == 0:
        return out
    prev = x * 0
    cur = one
    for n in range(n_max):
        A, B, C = abc(n)
        nxt = (A * x + B) * cur - C * prev
        out.append(nxt)
        prev, cur = cur, nxt
    return out


def eval(fam, n, x):
    """p_n(x) for the given family."""
    if n < 0:
        raise ParameterError("polynomial degree must be >= 0, got %r" % (n,))
    return eval_all(fam, n, x)[n]


def coeffs(fam, n):
    """Exact coefficient vector of p_n as a RationalPoly; parameters must be rational."""
    validate(fam)
    for name in ("q", "beta", "y", "rho"):
        v = getattr(fam, name)
        if v is not None and not is_exact(v):
            raise IrrationalParameterError(
                "coeffs(%s) needs rational %s, got %r" % (fam.tag, name, v)
            )
    return eval(fam, n, RationalPoly.x())


def w_growth(n_max, q):
    """W_n = sum_i [n i]_q via a_{n+1} = 2 a_n - (1 - q^n) a_{n-1}, a_0 = 1, a_1 = 2.

    (1-q)^{n/2} max_{S(q)} |H_n(x|q)| equals W_n; returned as a list up to n_max.
    """
    out = [q * 0 + 1]
    if n_max == 0:
        return out
    out.append(q * 0 + 2)
    p = q * 0 + 1  # q^n
    for n in range(1, n_max):
        p = p * q
        out.append(2 * out[-1] - (1 - p) * out[-2])
    return out


def v_growth(n_max, q, beta):
    """V_n = sum_i (beta;q)_i (beta;q)_{n-i} / ((q;q)_i (q;q)_{n-i}), n <= n_max."""
    bp = [q_pochhammer(beta, q, i) for i in range(n_max + 1)]
    qp = [q_pochhammer(q, q, i) for i in range(n_max + 1)]
    out = []
    for n in range(n_max + 1):
        acc = q * 0
        for i in range(n + 1):
            term = (bp[i] * bp[n - i]) / (qp[i] * qp[n - i])
            acc = acc + term
        out.append(acc)
    return out


def max_bound(fam, n):
    """Upper bound for max_{x in S(q)} |p_n(x)|.

    q-Hermite: W_n / (1-q)^{n/2} (sharp, attained at the right endpoint).
    Rogers: V_n / ((q;q)_n (1-q)^{n/2}); the V-sum bound is only established
    for 0 <= q < 1, so negative q is rejected here.
    """
    validate(fam)
    if fam.tag == "qhermite":
        q = float(fam.q)
        if not -1.0 < q < 1.0:
            raise ParameterError("max_bound needs -1 < q < 1, got q=%r" % (fam.q,))
        w = w_growth(n, q)[n]
        return w / (1.0 - q) ** (n / 2.0)
    if fam.tag == "rogers":
        q = float(fam.q)
        if not 0.0 <= q < 1.0:
            raise ParameterError(
                "Rogers max_bound is only established for 0 <= q < 1, got q=%r"
                % (fam.q,)
            )
        v = v_growth(n, q, float(fam.beta))[n]
        return v / (q_pochhammer(q, q, n) * (1.0 - q) ** (n / 2.0))
    raise ParameterError("max_bound supports qhermite and rogers, got %r" % (fam.tag,))


def special_values(fam, n, point):
    """Closed-form value p_n(point) for the tabulated (family, point) pairs.

    Supported: chebu at 0, 1, -1, 1/2; qhermite at 0 and "edge"; kesten at 0
    and 1; bigb at 0; rogers at 0.  Exact on rational parameters.
    """
    validate(fam)
    if n < 0:
        raise ParameterError("degree must be >= 0, got %r" % (n,))
    tag = fam.tag
    if tag == "chebu":
        if point == 0:
            if n % 2 == 1:
                return 0
            return (-1) ** (n // 2)
        if point == 1:
            return n + 1
        if point == -1:
            return (-1) ** n * (n + 1)
        if point == Fraction(1, 2):
            return (1, 1, 0, -1, -1, 0)[n % 6]
    elif tag == "qhermite":
        q = fam.q
        if point == 0:
            if n % 2 == 1:
                return q * 0
            k = n // 2
            return (-1) ** k * q_double_factorial_odd(k, q)
        if point == "edge":
            # right endpoint of S(q); exact W_n over an exact power when n even
            w = w_growth(n, q)[n]
            if is_exact(q) and n % 2 == 0:
                return w / (1 - Fraction(q)) ** (n // 2)
            return float(w) / (1.0 - float(q)) ** (n / 2.0)
    elif tag == "kesten":
        y, r = fam.y, fam.rho
        if point == 0:
            if n == 0:
                return 1 + 0 * r
            if n % 2 == 0:
                return (-1) ** (n // 2) * (1 - r * r)
            k = (n + 1) // 2
            return (-1) ** k * r * y
        if point == 1:
            if n == 0:
                return 1 + 0 * r
            m, rem = divmod(n, 3)
            if rem == 0:
                return (-1) ** m * (1 - r * r)
            if rem == 2:  # n = 3(m+1) - 1
                return (-1) ** m * (-r * y + r * r)
            return (-1) ** m * (1 - r * y)  # n = 3(m+1) - 2
    elif tag == "bigb":
        q = fam.q
        if point == 0:
            if n % 2 == 1:
                return q * 0
            k = n // 2
            return q ** (k * (k - 1)) * q_double_factorial_odd(k, q)
    elif tag == "rogers":
        q, b = fam.q, fam.beta
        if point == 0:
            if n % 2 == 1:
                return q * 0
            k = n // 2
            return (-1) ** k * q_pochhammer(b * b, q * q, k) * q_double_factorial_odd(k, q)
    raise ParameterError(
        "no tabulated special value for family %r at point %r" % (tag, point)
    )
