"""Loss helpers shared by the test modules."""

from kuzureader.autodiff import Tensor, matmul, reshape


def weighted(t: Tensor, weights) -> Tensor:
    """The scalar ``sum(t * weights)`` as one product of ``t``'s flat row and the flat weights.

    ``weights`` is an array or a tensor with ``t``'s entry count (``t`` itself
    gives the sum of squares). The gradient that reaches ``t`` is exactly
    ``weights``, as from a sum of the elementwise products.
    """
    n = t.data.size
    return reshape(matmul(reshape(t, (1, n)), reshape(weights, (n, 1))), ())
