"""Many-copy bounds: the separable Werner projector and eps(n) thresholds.

The projector onto the complement of the maximally entangled state is
separable, so no tensor power of it admits a witness; its extremal
rank-2 values are pinned between 1/24^n and 1/8^n.  Those bounds feed an
explicit noise threshold eps(n) under which the rank-5 NPT state stays
undistillable at n copies.

Run:  python demos/05_multicopy_bounds.py
"""

import math

import numpy as np

import distill_lab as dl

D33 = dl.Dims(3, 3)
PARAMS = dl.EdgeParams(1.0, math.pi / 6)

print("=" * 70)
print("The separable Werner projector")
print("=" * 70)
ws = dl.werner_projector()
evals = np.linalg.eigvalsh(ws.mat)
print(f"\n  spectrum: {evals[0]:.3f} (x1), {evals[-1]:.3f} (x8); trace "
      f"{ws.trace:.1f}; PPT: {dl.is_ppt(ws)}")
print(f"  best rank-2 overlap with the MES = {dl.max_rank2_overlap_with_mes():.8f}"
      f"   (exactly 2/3)")

print("\n" + "=" * 70)
print("Extremal rank-2 values of the n-fold power (cut A..A : B..B)")
print("=" * 70)
for n in (1, 2):
    rep = dl.extremal_rank2_tensor_power(n)
    print(f"\nn = {n}:")
    print(f"  max found        = {rep.max_value:.10f}   (ceiling 1/8^n = {1/8**n:.10f})")
    print(f"  product maximizer value = {rep.product_maximizer_value:.10f}")
    print(f"  min found        = {rep.min_value:.10f}")
    print(f"  proven floor     = {rep.bound_lower:.10f}   (1/24^n)")
    print(f"  conjectured min  = {rep.conjecture_value:.10f}   ((1/2) 12^-n)")
    print(f"  min - conjecture = {rep.min_value - rep.conjecture_value:+.2e}"
          "   (reported, never asserted: the true minimum is open)")
print("\n  At n = 2 an explicit lifted vector attains 1/288: psi (x) (x (x) y), with psi")
print("  the one-copy minimizer (1/24) and x (x) y the best product vector (1/12).")
print("  The conjecture asks whether any Schmidt-rank-2 vector beats that v*p; the")
print("  minimizer finds none, which is numerical agreement, not a proof.")

print("\n" + "=" * 70)
print("Noise thresholds eps(n) for n-copy undistillability")
print("=" * 70)
gap = dl.min_positive_pt_eigenvalue(PARAMS)
norm = float(np.linalg.eigvalsh(dl.edge_state_pt(PARAMS))[-1])
print(f"\n  budget gap/3 = {gap / 3:.8f}   PT operator norm N = {norm:.8f}")
print("  bound(eps) = (gap/3)^n - ((N + eps)^n - N^n), whose root is")
print("  eps(n) = N ((1 + (gap/3N)^n)^(1/n) - 1)")
for n in (1, 2, 3, 4):
    thr = dl.eps_threshold_for_copies(PARAMS, n)
    print(f"  eps({n}) = {thr:.3e}   bound at eps(n)/2: "
          f"{dl.undistillability_bound(PARAMS, n, thr / 2):+.3e}")
print("  (eps(1) = gap/3 and eps(n) decreases in n; the claims run at eps(n)/2)")

print("\n" + "=" * 70)
print("Verified: the rank-5 NPT state is 2-undistillable at eps(2)/2")
print("=" * 70)
rep = dl.verify_n_undistillable(PARAMS, 2)
print(f"\n  eps used                    = {rep.eps_used:.3e}")
print(f"  NPT check (min PT eigenvalue) = {rep.npt_min_pt_eigenvalue:+.3e}")
print(f"  numeric 2-copy rank-2 min   = {rep.min_value:.6e}")
print(f"  analytic lower bound        = {rep.bound_lower:.6e}")
print(f"  minimum > 0 and >= bound: {rep.min_value > 0 and rep.min_value >= rep.bound_lower - 1e-8}")
print("\nThe threshold is the closed-form root of the proven series bound: it is")
print("quantitative, and it implies the bare existence of a suitable eps for each")
print("copy count.")
