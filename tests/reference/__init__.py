"""Small, obviously correct reference implementations used as test oracles
for the production kernels."""
