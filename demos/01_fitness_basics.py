"""
Fitness basics
==============

Score a hand-built clustering of three points: f = w*K + mean cluster
deviation, with the deviation split into its delay and idle halves.
"""
import numpy as np

from bbuclust import (Clustering, ProblemConfig, TrafficDay,
                      build_distance_matrix, metrics)

# three points on a 2-km line, traffic over three hours
points = build_distance_matrix([[0.0, 0.0], [1000.0, 0.0], [2000.0, 0.0]])
traffic = TrafficDay(values=np.array([[0.8, 0.5, 0.3],
                                      [0.2, 0.7, 0.1],
                                      [0.2, 0.6, 0.7]]))
config = ProblemConfig(w=0.01, tau=1500.0, H=3)

# put the first two points on one unit, the third on its own
labels = Clustering(labels=np.array([1, 1, 2]))

rep = metrics(labels, traffic, config)
print(f"K = {rep.K} clusters, mean deviation U = {rep.U:.4f}")
print(f"f = w*K + U = {config.w}*{rep.K} + {rep.U:.4f} = {rep.f:.4f}")

# the deviation decomposes into over-capacity (delay) and idle halves
print(f"U = {rep.U:.4f} = Udelay {rep.Udelay:.4f} + Uunder1 {rep.Uunder1:.4f}")

# merging everything into one cluster saves a unit but overloads hour 1
merged = Clustering(labels=np.array([1, 1, 1]))
print(f"single cluster: f = {metrics(merged, traffic, config).f:.4f}")
