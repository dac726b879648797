"""Reference computations that the tests compare the package with."""


def convolve(mults, block, k):
    """sum_i mults[i] * block[k - i], one term at a time, with block read as 0 past its end."""
    return sum(c * block[k - i] for i, c in enumerate(mults) if 0 <= k - i < len(block))
