"""LHV certificates: Bell states are cube-separable, and every feasibility
verdict ships a checkable certificate.

Run:  python demos/03_lhv_certificates.py
"""
import numpy as np

from gencube import cube_separable, verify_certificate
from gencube.constructions import bell_cube_certificate
from gencube.pauli import PauliCoeffs2Q
from gencube.separability import appendix1_certificates, certificate_to_text

print("=" * 70)
print("The Bell state (|00>+|11>)/sqrt(2) has an 8-term cube decomposition")
print("=" * 70)
target, cert = bell_cube_certificate("phi+")
print("coefficient matrix:")
print(target.coeffs)
support = np.nonzero(cert.weights)[0]
print(f"certificate support: {len(support)} vertex pairs, weight 1/8 each")
print(f"verifies at 1e-12:   {verify_certificate(cert, target, tol=1e-12)}")

print("\nThe decider on the same state (facet test, then Caratheodory-descent weights):")
res = cube_separable(target)
print(f"feasible: {res.feasible} via {res.method}")
print("first lines of the serialized certificate:")
print("\n".join(certificate_to_text(res.certificate).splitlines()[:6]))

print("\n" + "=" * 70)
print("An infeasible state returns the violated facet instead")
print("=" * 70)
too_strong = PauliCoeffs2Q(np.diag([1.0, 1.2, -1.2, 1.2]))
res = cube_separable(too_strong)
print(f"feasible: {res.feasible} via {res.method}; violation of the facet: "
      f"{res.functional.violation:.4f}")
print("the facet, an integer Bell inequality f.A >= 0 on all 64 vertex products:")
print(res.functional.dual.astype(int))

print("\n" + "=" * 70)
print("The hand-built appendix decompositions, re-verified numerically")
print("=" * 70)
for item in appendix1_certificates():
    ok = item.valid and verify_certificate(item.certificate, item.target, tol=1e-12)
    print(f"  [{'ok' if ok else 'XX'}] {item.name}")
