"""Noise thresholds that make the CSIGN cube-separable.

Finds, for each of the three scaling noise families, the root of the
cube margin (the least normalized facet value of the noisy CSIGN output)
and compares it with the closed forms 2/3, 2-sqrt(2), 1-1/sqrt(2).
Also exports a small tradeoff curve over the rescaling factor R.

Run:  python demos/02_noise_thresholds.py
"""
import math

from gencube import StateSpaceSpec, ThresholdQuery, min_noise
from gencube.thresholds import curve, curve_to_csv

CUBE = StateSpaceSpec.cube(1.0)

closed_forms = {
    "joint-depol": 2 / 3,
    "local-depol": 2 - math.sqrt(2),
    "local-dephase": 1 - 1 / math.sqrt(2),
}

print("noise family     margin root          closed form")
for family, expected in closed_forms.items():
    lam = min_noise(ThresholdQuery(family, CUBE, "cube-separable"))
    print(f"{family:<16} {lam:.7f}          {expected:.7f}")

print("\njoint depolarization vs rescaling factor R (CSV):")
q = ThresholdQuery("joint-depol", CUBE, "cube-separable")
points = curve(q, 0.72, 1.2, 7)
print(curve_to_csv(points))
print("R < 1 admits the magic states as preparations; at R = 1/sqrt(2) the")
print("threshold is 1 - 1/(sqrt(2)+1) ~ 0.5858.")
