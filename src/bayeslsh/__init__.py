"""All-pairs similarity search with Bayesian hash-based pruning.

Candidate pairs come from LSH banding, a prefix-filtered inverted index,
or brute force; verification compares hash signatures incrementally and
prunes a pair as soon as the posterior probability of clearing the
threshold drops below epsilon, stopping early once the similarity
estimate is concentrated to within delta with probability 1 - gamma.
"""

from .candidates import (
    BandingParams,
    allpairs_generate,
    bruteforce_generate,
    lsh_banding_generate,
    num_tables,
)
from .corpus import (
    COSINE_BINARY,
    COSINE_WEIGHTED,
    JACCARD,
    MODES,
    Corpus,
    SparseVector,
    exact_similarities,
    exact_similarity,
    generate_synthetic,
    load_corpus,
    serialize_corpus,
    similarity_matrix,
    tfidf_weight,
)
from .errors import GuardError, NumericError, ParseError, UnsupportedMeasure
from .hashing import (
    CosineHashFamily,
    MinhashFamily,
    SignatureStore,
    decode_gaussian_2byte,
    encode_gaussian_2byte,
)
from .inference import (
    BetaParams,
    ConcentrationCache,
    CosinePosterior,
    JaccardPosterior,
    UNIFORM_PRIOR,
    build_minmatch_table,
    c2r,
    cosine_concentration_prob,
    cosine_map,
    cosine_prune_prob,
    fit_beta_mom,
    jaccard_concentration_prob,
    jaccard_map,
    jaccard_prune_prob,
    ml_estimate,
    posterior_for_measure,
    power_law_posterior_grid,
    r2c,
    required_hashes,
)
from .search import (
    OutputPair,
    SearchConfig,
    SearchResult,
    bayeslsh_lite_run,
    bayeslsh_run,
    exact_run,
    generate_candidates,
    lsh_approx_run,
    results_to_tsv,
    run_search,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
