"""Slow, obviously-correct reference implementations kept for
differential tests: the production code must match them bit for bit."""
