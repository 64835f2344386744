"""
Micro scoring table
===================

Reproduce the six-dataset micro study comparing the entropy-weighted
legacy score against the plain mean(1-U) criterion, and show the legacy
capacity-utility score on one cluster.
"""
import numpy as np

from bbuclust import TrafficDay, legacy_score, render_micro_reference

# the full 6 x 5 reference grid (per-cluster 1-U and entropy, row means)
print(render_micro_reference())

# legacy capacity utility of the all-in-one cluster of micro dataset 1:
# u = fbar^(-ln fbar) peaks when the mean aggregated traffic hits 1.0
traffic = TrafficDay(values=np.array([[0.8, 0.5, 0.3],
                                      [0.2, 0.7, 0.1],
                                      [0.2, 0.6, 0.7]]))
score = legacy_score(range(3), traffic)
print(f"legacy u = {score.u_legacy:.4f}, peak-hour entropy = {score.h_entropy:.4f}")
print(f"m = u * H = {score.m_product:.4f}")
print(f"member peak hours: {dict(score.peak_hours)}")
