"""Binary subset-selection codes for backdoor-robust ensemble aggregation.

The package covers the full pipeline: representing code matrices
(:mod:`bcode.bitmatrix`), verifying the detection / correction / tracking
properties (:mod:`bcode.properties`), constructing codes
(:mod:`bcode.construct`), searching for minimum-row codes
(:mod:`bcode.search`), decoding noisy ensemble outputs
(:mod:`bcode.decoder`), and evaluating codes by simulation
(:mod:`bcode.simulate`).  ``bcode.cli`` ties everything into a command-line
tool.
"""

from .bitmatrix import (
    BitMatrix,
    ColumnSet,
    column_or_mask,
    min_row_weight,
    select_columns,
    vstack,
)
from .construct import (
    CONSTRUCTIONS,
    add_ones_row,
    btc,
    build,
    general_bcc,
    minimal_bcc,
    minimal_bdc,
    partition_code,
    random_code,
    separable_search,
)
from .decoder import (
    DecodeResult,
    DecoderConfig,
    attack_posterior,
    attacker_posterior,
    decode,
    estimate_confusion,
    identity_confusions,
    label_posterior,
    majority_vote,
    uniform_count_prior,
)
from .errors import ConstructionError, DegenerateEvidenceError, ResourceLimitError
from .formats import CodeFile, dumps, load, load_confusions, loads, save, save_confusions
from .properties import (
    CodeKind,
    Violation,
    find_violation,
    is_separable,
    verify,
)
from .search import SearchResult, canonical_form, exhaustive_min
from .simulate import (
    Scenario,
    SweepPoint,
    dirichlet_profiles,
    run_trials,
    sample_outputs,
    sweep,
    synth_confusion,
    uniform_profile,
)

__version__ = "0.1.0"
