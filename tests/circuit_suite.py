"""Regression circuits shared by the simulator, CLI and acceptance tests:
1-3 qubits, quantum preparations, cube-separable noisy CSIGNs, one
adaptive circuit, and one qubit measured twice.
"""

T = "0.5773502691896258"

SUITE = {
    "bell_like_joint": f"""
qubits 2
prep 0 {T} {T} {T}
prep 1 {T} {T} {T}
csign 0 1 joint-depol 0.8
meas 0 X m0
meas 1 Z m1
""",
    "local_depol_pair": f"""
qubits 2
prep 0 1 0 0
prep 1 {T} {T} {T}
csign 0 1 local-depol 0.7
meas 0 Y m0
meas 1 X m1
""",
    "dephase_pair": """
qubits 2
prep 0 0.8 0 0.6
prep 1 1 0 0
csign 0 1 local-dephase 0.35
meas 0 X m0
meas 1 Y m1
""",
    "three_qubit_chain": f"""
qubits 3
prep 0 0 0 1
prep 1 {T} {T} {T}
prep 2 1 0 0
csign 0 1 joint-depol 0.75
clif 2 H
csign 1 2 local-dephase 0.4
meas 0 Z m0
meas 1 X m1
meas 2 Z m2
""",
    "adaptive_feedforward": f"""
qubits 3
prep 0 1 0 0
prep 1 {T} {T} {T}
prep 2 0 0 1
csign 0 1 joint-depol 0.8
meas 0 X m0
ifeq m0 +1 clif 1 S
ifeq m0 -1 clif 1 H
csign 1 2 local-depol 0.75
meas 1 Y m1
meas 2 Z m2
""",
    # measuring Z collapses the X eigenstate: the X outcome is then 50/50
    "remeasure_zx": """
qubits 1
prep 0 1 0 0
meas 0 Z a
meas 0 X b
""",
}
