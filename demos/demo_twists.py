"""Quadratic-twist experiment: split a twist family by root number.

Starting from the base curve y^2 = x^3 + x + 1 (conductor surrogate N = 49,
root number +1), the twists E_D over fundamental discriminants D split into a
plus family (expected even rank) and a minus family (expected odd rank).
Because N is an odd square here, the sign of the functional equation is
decided by sign(D) alone, which makes the partition easy to see.
"""

from avgrank import Curve, bump, theorem4_proportions, twist_average_experiment

base = Curve(1, 1)
N, w = 49, 1
T, X = 400.0, 60.0

# one call over both weight supports; each root-number class is a mask of its rows
rep = twist_average_experiment(base, N, w, (bump(0.2, 1.0), bump(-1.0, -0.2)), T, X)

print(f"base curve (r, s) = ({base.r}, {base.s}), N = {N}, w = {w:+d}")
print(f"twist height T = {T:g}, prime cutoff X = {X:g}")
print()
for name, sign in (("plus", 1), ("minus", -1)):
    print(f"{name:>5s} family: {int((rep.sign == sign).sum())} discriminants, "
          f"total weight {rep.W[sign]:.4f}, avg rank bound {rep.avg_bound[sign]:.4f}")
print(f"class (k, delta, e) -> signs map: {rep.class_sign_map}")

print()
p0, p1 = theorem4_proportions(rep.avg_bound[1], rep.avg_bound[-1])
print("if the averages were at their conjectural limits these would give")
print(f"  lower proportion of rank-0 twists in the plus family : {p0:.3f}")
print(f"  lower proportion of rank-1 twists in the minus family: {p1:.3f}")
print("(at this toy scale the averages are too large and the proportions clamp)")
