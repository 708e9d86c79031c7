"""A rank-5 NPT state that admits no single-copy witness.

Subtracting a small product projector from the edge state produces an
NPT state of rank 5 whose best rank-2 PT value is provably at least
gap/3 - eps > 0.  Rank 5 is sharp: every NPT state of rank 4 or less
certifies, and adding product noise back raises distillable states of
any rank from 5 to 9.

Run:  python demos/04_undistillable_rank5.py
"""

import math

import numpy as np

import distill_lab as dl

D33 = dl.Dims(3, 3)

print("=" * 70)
print("Building the rank-5 NPT perturbation at (b, theta) = (1, pi/6)")
print("=" * 70)

bundle = dl.build_edge_bundle(dl.EdgeParams(1.0, math.pi / 6))
rho = bundle.npt_state
print(f"\n  gap (min positive PT eigenvalue of the edge state) = {bundle.p1:.8f}")
print(f"  noise eps                                          = {bundle.eps:.8f}"
      f"   (0.9 * gap/3)")
print(f"  proven margin gap/3 - eps                          = {bundle.margin:.8f}")

evals = np.linalg.eigvalsh(rho.mat)
pt_evals = np.linalg.eigvalsh(dl.partial_transpose(rho.mat, D33))
print(f"\n  min eigenvalue            = {evals[0]:+.2e}   (PSD)")
print(f"  rank                      = {dl.rank_kernel_range(rho.mat)[0]}")
print(f"  PT spectrum signature     = {int(np.sum(pt_evals < -1e-9))} negative, "
      f"{int(np.sum(pt_evals > 1e-9))} positive  (NPT)")

print("\n" + "=" * 70)
print("No single-copy witness exists")
print("=" * 70)
cert = dl.certify_1_distillable(rho)
print(f"\n  certify_1_distillable -> {cert}")
best, _ = dl.best_rank2_witness(rho)
print(f"  best rank-2 PT value found (seeded block ALS) = {best:.6e}")
print(f"  proven lower bound                            = {bundle.margin:.6e}")
print(f"  bound respected: {best >= bundle.margin - 1e-8}")
print("\n  The kernel of this state contains no product vector (it is a")
print("  completely entangled subspace), so the kernel route cannot fire,")
print("  and the spectral routes fail because the PT has only one negative")
print("  eigenvalue. The lower bound turns the optimizer's failure into a")
print("  proof for one copy.")

print("\n" + "=" * 70)
print("Rank 5 is the edge: raising distillable states of rank 5..9")
print("=" * 70)
spec = dl.EnsembleSpec(dims=D33, rank=4, count=1, filter="NPT", seed=31337)
base = dl.sample_ensemble(spec)[0][0]
print(f"\nBase: random rank-4 NPT state (certifies: "
      f"{dl.certify_1_distillable(base) is not None})")
for target in (5, 6, 7, 8, 9):
    raised = dl.distillable_of_rank(base, target, 1e-3)
    cert = dl.certify_1_distillable(raised)
    print(
        f"  rank {target}: NPT={not dl.is_ppt(raised)}, "
        f"certified via {cert.route:<14} value={cert.value:.3e}"
    )
print("\nSo 1-undistillable NPT states exist at rank 5 and nowhere below,")
print("while distillable NPT company exists at every rank from 5 to 9.")
