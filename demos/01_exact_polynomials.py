"""Tour of the exact polynomial layer.

Every decision downstream is exact, with no tolerance knob anywhere. Edge
congruences are tested by evaluation at each weight's primitive
perpendicular; pairing shortcuts and weight multiples are read with
``parallel_ratio``, and integrals with its rule on integer rows; exact
division by a linear form stays as the reference that
``congruent_mod_linear`` uses.
"""

from fractions import Fraction

from gkm import GkmError, Polynomial, Vector, congruent_mod_linear, lin_form

x1 = Polynomial.variable(0)
x2 = Polynomial.variable(1)

# Weight vectors are planar and embed as linear forms.
alpha = Vector((-1, -2))
print("lin_form((-1,-2)) =", lin_form(alpha))

# Two vectors are parallel exactly when their cross product is zero.
print("(-1,-2) x (2,4) =", alpha.cross(Vector((2, 4))), "; dot =", alpha.dot(Vector((2, 4))))

# Polynomials are binary forms: arithmetic is exact, the text form lists
# x1-heavy terms first, and adding forms of two degrees is a DegreeError.
f = (x1 + x2) * (x1 - x2) + Fraction(1, 3) * x1 * x2
print("f =", f)
try:
    x1 + 1
except GkmError as exc:
    print(f"x1 + 1: {type(exc).__name__}: {exc}")

# Division by a linear form either succeeds exactly or raises.
g = (x1 - x2) * (x1 + 5 * x2)
print("g / (x1 - x2) =", g.divide_by_linear(x1 - x2))

# One polynomial as an exact rational multiple of another, or None.
ratio = (3 * x1**2 - 6 * x2**2).parallel_ratio(x1**2 - 2 * x2**2)
print("(3*x1^2 - 6*x2^2) / (x1^2 - 2*x2^2) =", ratio)
print("x1*x2 a multiple of x1^2?", (x1 * x2).parallel_ratio(x1**2))

# The congruence that defines graph cohomology: f == g mod a weight form.
print("x1^2 == x2^2 mod (x1 - x2)?", congruent_mod_linear(x1**2, x2**2, x1 - x2))
print("x1   == 0    mod x2?      ", congruent_mod_linear(x1, Polynomial.zero(), x2))

# Exact evaluation doubles as an independent oracle for the localization
# machinery later on.
print("f(2, 3) =", f.evaluate((2, 3)))
