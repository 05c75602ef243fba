"""
Divergent expected meetings, finite actual meetings
===================================================

Two independent walkers on the comb over the line meet only finitely
often, yet the expected number of meetings diverges.  The exact kernel
shows the divergence; an ensemble shows almost every pair goes quiet
early while rare pairs keep the mean growing.
"""

import numpy as np

from combwalks import (build_graph, estimate_exponent,
                       meeting_expectation_series, meeting_growth_curve,
                       run_ensemble)

g = build_graph("comb:line")

# exact side: partial sums of P[X_n = Y_n] grow like T^(1/4)
partial, increment = meeting_expectation_series(g, 1024)
fit = estimate_exponent(partial, (128, 1024))
print(f"expected meetings by T=1024: {partial.value_at(1024):.3f}")
print(f"growth exponent of the partial sums: {fit.slope:+.3f} (1/4 in the limit)")

# sampled side: 400 pairs, 2^16 steps each
out = run_ensemble(g, n_steps=2 ** 16, replicas=400, seed=1)
curve = meeting_growth_curve(out)
print("\n      t   mean meetings   still-meeting fraction")
for t, m, s in zip(curve.times, curve.mean_meetings, curve.survival_frac):
    if t >= 2 ** 10:
        print(f"{t:>7d}   {m:13.3f}   {s:22.3f}")

# the mean keeps climbing, but the median pair stopped long ago
last = np.array([s.times[-1] if s.times else 0 for s in out])
print(f"\nmedian time of the last meeting: {int(np.median(last))}")
print(f"mean meetings at T:              {curve.mean_meetings[-1]:.2f}")
print(f"pairs still meeting after T/16:  {curve.survival_frac[-5]:.1%}")
