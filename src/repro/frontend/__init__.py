"""`repro.frontend` — the kernel spec language.

One line of einsum/affine notation describes a kernel::

    C[i,j] += A[i,k] * B[k,j]

and :func:`lower_spec` compiles it (plus a ``dims`` extent mapping) into
the same :class:`repro.ir.Func` pipeline a hand-written builder would
produce — deterministically, down to the content fingerprint.  The spec
string is accepted everywhere a Func is: :class:`repro.api
.OptimizeRequest(spec=..., dims=...) <repro.api.OptimizeRequest>`, the
CLI (``repro optimize --spec`` / ``repro submit --spec``) and the serve
wire format (repro-serve-v1.1 ``{"spec": ..., "dims": ...}`` bodies).

The paper's Table 4 suite and its extras are spec rows too
(:mod:`repro.bench.suite`), and :mod:`repro.frontend.corpus` uses the
same row type for the next workload ring: the remaining PolyBench
kernels plus DL-shaped ops (batched matmul, convolutions with channels,
attention-shaped chains) — see ``python -m repro.frontend corpus``.
"""

from repro.frontend.lowering import DTYPES, Lowered, lower_spec
from repro.frontend.parser import parse_spec

__all__ = ["DTYPES", "Lowered", "lower_spec", "parse_spec"]
