"""Recurrent networks with Schur-form connectivity.

The recurrent matrix is V = P (Lambda + T) P^T: the spectrum lives in the
2x2 rotation blocks of Lambda, the non-normal part in the strictly-lower
T, and P is kept orthogonal on its manifold during training.  The package
also ships the analysis side: Fisher memory curves, transient ensembles,
exact polynomial-growth verification, and connectivity diagnostics.

Importing the package loads none of its modules; import the one you use:

- ``schur``: the Schur-form parametrization, its pullback and checkpoints
- ``rnn``: the model, its forward pass and BPTT
- ``optim``: RMSprop, the training loop and its configuration
- ``tasks``: the copy task and the character-level corpus stream
- ``memory``: Fisher memory curves, the Prop. 1 check, transient ensembles
- ``propcheck``: exact Prop. 2 verification and the growth probe
- ``analysis``: connectivity reports of a trained model
- ``cli``: the ``schurrnn`` command and the format of every output file
"""

__version__ = "0.1.0"


class DivergenceError(FloatingPointError):
    """A numerical failure: a rotation modulus gamma that is not > 0, an
    eigendecomposition of B^T B that fails, a non-finite hidden state or
    loss, a covariance series still growing at its term cap, or transient
    ensemble statistics that overflow.
    ``records`` holds the training log records written before it."""

    def __init__(self, message, records=()):
        super().__init__(message)
        self.records = list(records)
