"""Bayesian nonparametric clustering with plain and coloured partition priors.

The package provides exact partition-prior computation (Dirichlet process,
Dirichlet-multinomial, Pitman-Yor, coloured and background-cluster variants),
forward samplers for the generative constructions, conjugate normal-gamma
regression marginals, collapsed Gibbs samplers, and decision-theoretic
partition estimation, plus a small batch pipeline (``cdpmix run|verify|summarize``).
"""

__version__ = "0.1.0"

from .conjugate import ClusterEvaluator, DesignBlock, NormalGammaSpec, log_mvt
from .errors import NumericalError, ValidationError
from .estimation import (LossSpec, SimilarityMatrix, accumulate_similarity,
                         cluster_summaries, expected_pairwise_loss,
                         optimal_partition)
from .generators import (Atom, BaseMeasure, StickWeights, UniformBase, sample_cdp,
                         sample_dp_partition_via_sticks, sample_finite_mixture_alloc,
                         sample_gem, sample_gem_two_param, sample_polya_sequence)
from .gibbs import (ChainState, NIGEngine, SweepPlan, TraceRecord, build_engines,
                    run_chain)
from .partitions import (ColouredPartition, ConfigurationCounts, Partition,
                         enumerate_coloured_partitions, enumerate_configurations,
                         enumerate_partitions)
from .priors import (LOG_ZERO, BackgroundDirichletProcess, ColouredDirichletProcess,
                     DirichletMultinomial, DirichletProcess, PitmanYor,
                     log_eppf, log_eppf_sequential, log_ewens_config)
