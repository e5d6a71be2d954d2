"""Naive list re-simulation of the representative-memory policy.

Independent of the package implementation: plain dict entries, full
scans, and explicit tie-break rules. Distances use the same numpy
expression shape as the package so trajectories are bit-comparable
(reduction order matters at float64).
"""

import math

import numpy as np


def distance(mu_a, sigma_a, mu_b, sigma_b):
    dm = np.asarray(mu_a) - np.asarray(mu_b)
    ds = np.asarray(sigma_a) - np.asarray(sigma_b)
    return float(np.sqrt(np.sum(dm * dm) + np.sum(ds * ds)))


class OracleMemory:
    """Confidence filter + class balance + farthest-from-centroid eviction."""

    tau_delta = 0.1  # the centroid shift beyond which stored distances are recomputed

    def __init__(self, capacity, tau_conf, beta):
        self.capacity = capacity
        self.tau_conf = tau_conf
        self.beta = beta
        self.entries = []  # dicts: arrival, label, conf, mu, sigma, wdist
        self.mu = None
        self.sigma = None

    def score(self, mu, sigma):
        if self.mu is None:
            return math.inf
        return distance(mu, sigma, self.mu, self.sigma)

    def offer(self, arrival, label, conf, mu, sigma):
        if conf <= self.tau_conf:
            return
        self.entries.append({
            "arrival": arrival, "label": label, "conf": conf,
            "mu": np.asarray(mu, dtype=float), "sigma": np.asarray(sigma, dtype=float),
            "wdist": self.score(mu, sigma),
        })
        if len(self.entries) <= self.capacity:
            return
        counts = {}
        for e in self.entries:
            counts[e["label"]] = counts.get(e["label"], 0) + 1
        best_label, best_key = None, None
        for lab, count in counts.items():
            farthest = max(e["wdist"] for e in self.entries if e["label"] == lab)
            key = (count, farthest, -lab)
            if best_key is None or key > best_key:
                best_label, best_key = lab, key
        pool_label = label if label == best_label else best_label
        victim_i, victim_key = None, None
        for i, e in enumerate(self.entries):
            if e["label"] != pool_label:
                continue
            key = (e["wdist"], -e["arrival"])
            if victim_key is None or key > victim_key:
                victim_i, victim_key = i, key
        del self.entries[victim_i]

    def step_centroid(self, mean, var):
        mean = np.asarray(mean, dtype=float)
        var = np.asarray(var, dtype=float)
        if self.mu is None:
            self.mu = mean.copy()
            self.sigma = np.sqrt(var)
            shift = math.inf
        else:
            b = self.beta
            new_mu = (1.0 - b) * self.mu + b * mean
            new_var = (1.0 - b) * (self.sigma * self.sigma) + b * var
            new_sigma = np.sqrt(new_var)
            shift = distance(self.mu, self.sigma, new_mu, new_sigma)
            self.mu, self.sigma = new_mu, new_sigma
        if shift > self.tau_delta:
            for e in self.entries:
                e["wdist"] = distance(e["mu"], e["sigma"], self.mu, self.sigma)
        return shift

    def dump(self):
        return "\n".join(
            f"{e['arrival']}\t{e['label']}\t{e['conf']!r}\t{e['wdist']!r}"
            for e in self.entries
        )
