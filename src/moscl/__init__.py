"""Mixed-order self-paced curriculum learning on small synthetic problems:
perturbation uncertainty, rank-fused difficulty, mixed-order batch plans,
self-paced and OHEM baselines, and gradient-conflict analysis."""
