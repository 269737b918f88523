"""Ordered consensus with equal opportunity: simulator, oracle, analysis."""
