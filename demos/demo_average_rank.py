"""Walk through the average-rank bound for a small weighted curve family.

For each curve y^2 = x^3 + r x + s in the family we assemble the unconditional
upper bound

    rank(E) <= log(N surrogate)/log X + (2/log X)(U1 + U2) + C0/log X

and then average it with the box weight w(r / T^(1/3)) w(s / T^(1/2)), where
w = even_bump() on both axes, so T and X are all the call needs.  At these
tiny scales the bound is far from sharp -- the point of the demo is to show
every ingredient and how the pieces are balanced, not to produce a
publishable constant.
"""

import math

import numpy as np

from avgrank import average_rank_experiment

T = 5000.0
X = 60.0

report = average_rank_experiment(T, X)

print(f"family height T = {T:g}, prime cutoff X = {X:g}")
print(f"curves in the weighted family: {len(report.r)}")
print(f"total weight S(T)             = {report.S_T:.6f}")
print()
print("weighted averages of the three bound terms (each divided by log X):")
print(f"  conductor term   {report.avg_logN_term / math.log(X):8.4f}")
print(f"  U1 prime sum     {report.u1_over_logX:8.4f}   (oscillates around 0)")
print(f"  U2 prime-square  {report.u2_over_logX:8.4f}   (slowly approaches 1/4)")
print()
print(f"weighted average rank bound   = {report.avg_bound:.4f}")

# the five largest individual bounds, for a feel of the spread
top = np.argsort(-report.bound, kind="stable")[:5]
print("\nlargest individual bounds:")
print("      r      s    logN/logX     U1-term     U2-term     bound")
for i in top:
    print(
        f"  {report.r[i]:5d}  {report.s[i]:5d}   {report.logN_term[i]:9.4f}  "
        f"{report.U1_term[i]:9.4f}  {report.U2_term[i]:9.4f}  {report.bound[i]:9.4f}"
    )
