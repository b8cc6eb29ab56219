"""Embedding-free slot tagging and text classification.

Token features come from cached MinHash fingerprints scattered into counting
arrays; a small bottleneck + MLP-Mixer network trained with Adam does the
rest. No embedding tables, no string hashing at inference time.
"""

from .config import PRESETS, RunConfig, build_run_config
from .data import Example, LabelInventory, load_jsonl, synth_examples
from .hashing import HashFamily, char_trigrams, fnv1a64, minhash_unit, splitmix64, string_hash
from .mixer import ModelConfig, backward_batch, count_parameters, forward_batch, init_params
from .projection import (
    FeatureMatrix,
    FingerprintCache,
    ProjectionConfig,
    build_cache,
    counting_feature,
    token_fingerprint,
)
from .quantize import QuantTensor, dequantize, quantize_tensor
from .training import (
    TrainConfig,
    adam_step,
    cross_entropy_masked,
    exact_match_accuracy,
    train,
)
from .vocab import Vocabulary, load_vocab, pre_tokenize, tokenize_word

__version__ = "0.1.0"
