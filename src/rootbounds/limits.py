"""The sampler settings that the CLI's parser reads.

They live apart from sampler.py, the one module that imports numpy, so
that building the parser does not load numpy.
"""

DEFAULT_CHUNK = 1 << 16
# estimate_bound refuses more worker threads than this, so a typo in
# --threads cannot start thousands of them
MAX_THREADS = 64
