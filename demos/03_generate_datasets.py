"""
Dataset generation
==================

Build each of the synthetic instance families, save one to CSV, load it
back, and check the planted optimum of a cohesive-geometry instance.
"""
import tempfile
from pathlib import Path

import numpy as np

from bbuclust import (Clustering, ProblemConfig, load_dataset, make_dataset,
                      metrics, save_dataset)

for kind in ("1a", "1c-milan", "1c-songliao", "2a", "2b", "3a"):
    ds = make_dataset(kind, seed=0, n_days=2)
    v = np.stack([t.values for t in ds.traffic])
    print(f"{kind:12s} {ds.point_set.n_points:4d} points, "
          f"{len(ds.traffic)} days, traffic in [{v.min():.3f}, {v.max():.3f}]")

# type 2b plants a known optimum: each generated group sums to exactly 1.0
# every hour, so the certificate clustering has zero deviation
ds = make_dataset("2b", seed=1, n_days=1, n_groups=5, np_max=4, tau_gen=10.0)
cert = Clustering(labels=np.array(ds.manifest.optimal_labels))
rep = metrics(cert, ds.traffic[0], ProblemConfig(w=0.01, tau=10.0, H=24))
print(f"\nplanted optimum: K = {rep.K}, U = {rep.U} (exactly zero)")

# round-trip through the CSV layout
with tempfile.TemporaryDirectory() as tmp:
    save_dataset(ds, Path(tmp) / "demo")
    back = load_dataset(Path(tmp) / "demo")
    same = all(np.array_equal(a.values, b.values)
               for a, b in zip(ds.traffic, back.traffic))
    print(f"save/load round trip intact: {same}")
