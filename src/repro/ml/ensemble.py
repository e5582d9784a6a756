"""Network ensembles with worst-member pruning.

"To improve generalizability, we initialize the same neural network
using different edge weights and utilize the average across multiple
(20) networks.  Further, we utilize simple ensemble pruning by removing
the top 30% of the networks that produce the highest reported training
error.  The final performance value would be an average of 14 networks"
(paper §3.6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.ml.network import FeedForwardNetwork
from repro.ml.scaler import StandardScaler
from repro.ml.train import TrainingResult, train_bayesian_lm
from repro.runtime.backend import ExecutionBackend, resolve_backend
from repro.sim.rng import SeedLike, derive_rng

#: Paper defaults (§3.6.2, §4.3).
DEFAULT_ENSEMBLE_SIZE = 20
DEFAULT_PRUNE_FRACTION = 0.30
DEFAULT_HIDDEN_LAYERS = (14, 4)


@dataclass(frozen=True)
class EnsembleConfig:
    """Hyperparameters of the surrogate ensemble."""

    hidden_layers: Sequence[int] = DEFAULT_HIDDEN_LAYERS
    n_networks: int = DEFAULT_ENSEMBLE_SIZE
    prune_fraction: float = DEFAULT_PRUNE_FRACTION
    max_epochs: int = 200

    def __post_init__(self):
        if self.n_networks < 1:
            raise TrainingError("ensemble needs at least one network")
        if not (0.0 <= self.prune_fraction < 1.0):
            raise TrainingError("prune_fraction must be in [0, 1)")


@dataclass(frozen=True)
class MemberTask:
    """One ensemble member's training job (standardized data + seed)."""

    member: int
    seed: int
    layer_sizes: Tuple[int, ...]
    x: np.ndarray
    y: np.ndarray
    max_epochs: int


def train_member_task(task: MemberTask) -> Tuple[FeedForwardNetwork, TrainingResult]:
    """Initialize and train one member (module-level for picklability)."""
    net = FeedForwardNetwork(task.layer_sizes, rng=np.random.default_rng(task.seed))
    result = train_bayesian_lm(net, task.x, task.y, max_epochs=task.max_epochs)
    return net, result


def _stack_members(
    networks: Sequence[FeedForwardNetwork],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per layer, every member's ``(in, out)`` weights as one
    ``(M, in, out)`` array and its biases as ``(M, 1, out)``."""
    if not networks:
        return []
    if any(net.layer_sizes != networks[0].layer_sizes for net in networks):
        raise TrainingError("ensemble members must share one topology")
    if networks[0].layer_sizes[-1] != 1:
        raise TrainingError("ensemble members must have a single output")
    return [
        (
            np.stack([net.weights[i] for net in networks]),
            np.stack([net.biases[i] for net in networks])[:, None, :],
        )
        for i in range(len(networks[0].weights))
    ]


class NetworkEnsemble:
    """Average of independently initialized Bayesian-regularized nets.

    Handles feature/target standardization internally: callers pass raw
    features (RR + unit-encoded parameters) and raw AOPS targets.
    """

    def __init__(self, config: Optional[EnsembleConfig] = None):
        self.config = config or EnsembleConfig()
        self.networks = []
        self.training_results: List[TrainingResult] = []
        self.pruned_count = 0
        self.x_scaler = StandardScaler()
        self.y_scaler = StandardScaler()

    @property
    def networks(self) -> List[FeedForwardNetwork]:
        """The active members.

        Assigning a list stacks their weights for inference, so members
        are frozen once assigned: to change one, assign a new list.
        """
        return self.__dict__["networks"]

    @networks.setter
    def networks(self, networks: Sequence[FeedForwardNetwork]) -> None:
        # The member list keeps its own name in the instance dict, and
        # the stack stays out of the pickled state: a pickled ensemble
        # is exactly its members, scalers, and config.
        self.__dict__["networks"] = list(networks)
        self._stack = _stack_members(self.__dict__["networks"])

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_stack"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._stack = _stack_members(self.networks)

    @property
    def is_fitted(self) -> bool:
        return bool(self.networks)

    @property
    def active_count(self) -> int:
        return len(self.networks)

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        seed: SeedLike = 0,
        backend: Optional[ExecutionBackend] = None,
        checkpoint_dir=None,
        events=None,
    ) -> "NetworkEnsemble":
        """Train the full ensemble, then prune by training error.

        Each member trains from its own pre-derived stream (spawned from
        ``seed`` up front), so members are independent work units:
        ``backend`` fans the training out across processes with results
        identical to a serial run.

        With a ``checkpoint_dir`` each trained member is persisted
        atomically, and a restarted fit loads the members whose
        checkpoints match this exact run (seed, topology, standardized
        data) instead of retraining them — landing on bitwise-identical
        weights.  Corrupt or stale checkpoints are ignored (and reported
        on ``events`` as ``recovery.corrupt_artifact``); the member just
        retrains.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise TrainingError("bad training data shapes")
        xs = self.x_scaler.fit_transform(x)
        ys = self.y_scaler.fit_transform(y)

        rng = derive_rng(seed)
        layer_sizes = [x.shape[1], *self.config.hidden_layers, 1]
        member_seeds = [
            int(rng.integers(0, 2**63 - 1)) for _ in range(self.config.n_networks)
        ]

        fingerprint = None
        loaded = {}
        if checkpoint_dir is not None:
            from repro.recovery.checkpoint import (
                load_member_checkpoint,
                save_member_checkpoint,
                training_fingerprint,
            )

            config_tag = (
                f"{tuple(layer_sizes)}|{self.config.max_epochs}"
                f"|{self.config.prune_fraction}"
            )
            fingerprint = training_fingerprint(xs, ys, config_tag)
            for i, member_seed in enumerate(member_seeds):
                restored = load_member_checkpoint(
                    checkpoint_dir,
                    i,
                    member_seed,
                    tuple(layer_sizes),
                    fingerprint,
                    events=events,
                )
                if restored is not None:
                    loaded[i] = restored
            if loaded and events is not None:
                events.publish(
                    "recovery.resumed",
                    f"resumed {len(loaded)}/{self.config.n_networks} ensemble "
                    "members from checkpoints",
                    resumed=len(loaded),
                    total=self.config.n_networks,
                    path=str(checkpoint_dir),
                )

        tasks = [
            MemberTask(
                member=i,
                seed=member_seed,
                layer_sizes=tuple(layer_sizes),
                x=xs,
                y=ys,
                max_epochs=self.config.max_epochs,
            )
            for i, member_seed in enumerate(member_seeds)
            if i not in loaded
        ]
        on_member = None
        if checkpoint_dir is not None:
            # Checkpoint each member as it lands, not after the whole
            # batch: a kill mid-fit keeps every finished member.
            def on_member(position: int, pair) -> None:
                task = tasks[position]
                save_member_checkpoint(
                    checkpoint_dir, task.member, task.seed, fingerprint, *pair
                )

        fresh = resolve_backend(backend).map_tasks(
            train_member_task, tasks, on_result=on_member
        )

        # Merge restored + freshly trained members back into member
        # order before sorting, so a resumed fit sees the same sequence
        # an uninterrupted one does.
        by_member = dict(loaded)
        for task, pair in zip(tasks, fresh):
            by_member[task.member] = pair
        trained = [by_member[i] for i in range(self.config.n_networks)]

        # Stable sort + per-member training being scheduling-independent
        # keeps the pruned ensemble identical across backends.
        trained.sort(key=lambda pair: pair[1].train_mse)
        keep = max(
            1,
            int(round(self.config.n_networks * (1.0 - self.config.prune_fraction))),
        )
        self.pruned_count = len(trained) - keep
        self.networks = [net for net, _ in trained[:keep]]
        self.training_results = [res for _, res in trained[:keep]]
        return self

    def _mean_std_scaled(self, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Member mean and spread in *standardized* target units.

        All members run at once, one stacked ``einsum`` per layer.  Its
        per-row reduction order does not depend on the row count (BLAS
        ``@`` does not promise that: gemm and gemv accumulate
        differently), and mean and spread accumulate member by member
        with elementwise ops rather than ``np.mean``/``np.std`` axis
        reductions, whose unrolled base cases change the order with the
        column count.  So each row's result is bit-identical whether it
        is evaluated alone or inside a batch.
        """
        a = xs
        last = len(self._stack) - 1
        for i, (w, b) in enumerate(self._stack):
            z = np.einsum("ij,mjk->mik" if i == 0 else "mij,mjk->mik", a, w) + b
            a = z if i == last else np.tanh(z)
        forwards = a[:, :, 0]
        total = forwards[0].copy()
        for f in forwards[1:]:
            total += f
        mean = total / len(forwards)
        sq = np.zeros_like(mean)
        for f in forwards:
            sq += (f - mean) ** 2
        std = np.sqrt(sq / len(forwards))
        return mean, std

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble-mean prediction in original target units (AOPS)."""
        if not self.is_fitted:
            raise TrainingError("ensemble used before fit()")
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        xs = self.x_scaler.transform(x)
        mean, _ = self._mean_std_scaled(xs)
        out = self.y_scaler.inverse_transform(mean)
        return float(out[0]) if squeeze else out

    def predict_std(self, x: np.ndarray) -> np.ndarray:
        """Across-member prediction spread (a cheap uncertainty proxy)."""
        if not self.is_fitted:
            raise TrainingError("ensemble used before fit()")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        xs = self.x_scaler.transform(x)
        _, std = self._mean_std_scaled(xs)
        return std * self.y_scaler.scale_[0]

    def predict_mean_std(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mean and spread from a single walk over the member networks.

        ``predict`` followed by ``predict_std`` runs every member twice
        on the same rows; uncertainty-penalized search needs both, so
        this returns ``(mean, std)`` — both ``(n,)``, original target
        units — from one set of forward passes.
        """
        if not self.is_fitted:
            raise TrainingError("ensemble used before fit()")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        xs = self.x_scaler.transform(x)
        mean, std = self._mean_std_scaled(xs)
        return (
            self.y_scaler.inverse_transform(mean),
            std * self.y_scaler.scale_[0],
        )
