"""Vector-valued reproducing kernel Banach spaces with atomic measures.

The package has three layers:

* algebra: dual pairs and twin operators (``dual_pair``), finitely
  atomic vector measures with their pairing (``measure``), and scalar
  feature functions with the induced kernel (``feature``);
* spaces: integral-RKBS functions, norm brackets, the kernel-ridge
  baseline, and reproducing-identity checks (``rkbs``);
* learning: total-variation-regularized fitting by atom-inserting
  conditional gradient and its certified grid oracle (``solver``), and
  the two-level operator-learning models built from product features
  (``operator_learning``).

``cli`` exposes all of it as a batch command with deterministic,
machine-readable output; ``verify`` hosts the invariant suite it runs.
"""

__version__ = "0.1.0"
