"""Name-gender frequency models, inference, and evaluation tooling.

Import what you use from its module: namegender.corpus, .mle, .inferrers,
.ensemble, .evaluation, .analysis or .cli.
"""

__version__ = "0.1.0"
