from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refscan.errors import AdapterError, ConfigError, InputError
from refscan.semantics import (
    Detection,
    SyntheticEncoder,
    build_scene_attribute_tokens,
    default_stopwords,
    embed_reference,
    parse_stopwords,
    synthetic_encode,
    tokenize_and_filter,
)


class TestTokenize:
    def test_stop_word_filtering(self):
        words, keywords = tokenize_and_filter("the man in a red shirt", {"the", "in", "a"})
        assert words == ["the", "man", "in", "a", "red", "shirt"]
        assert keywords == ["man", "red", "shirt"]

    def test_all_stop_words(self):
        words, keywords = tokenize_and_filter("The THE the", {"the"})
        assert words == ["the", "the", "the"]
        assert keywords == []

    def test_punctuation_stripped(self):
        # oracle by hand: punctuation splits, case folds, order kept
        words, keywords = tokenize_and_filter("woman, standing left!", set())
        assert words == ["woman", "standing", "left"]
        assert keywords == words

    def test_empty_text_rejected(self):
        with pytest.raises(InputError):
            tokenize_and_filter("   ", set())

    def test_duplicates_kept_in_order(self):
        _, keywords = tokenize_and_filter("red hat red scarf", set())
        assert keywords == ["red", "hat", "red", "scarf"]

    @given(st.lists(st.sampled_from(["man", "red", "the", "left", "a"]), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_filtering_idempotent(self, tokens):
        stop = {"the", "a"}
        _, keywords = tokenize_and_filter(" ".join(tokens), stop)
        refiltered = [w for w in keywords if w not in stop]
        assert refiltered == keywords


class TestSyntheticEncode:
    def test_deterministic(self):
        a = synthetic_encode("man", 16, 7)
        b = synthetic_encode("man", 16, 7)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        for word in ("man", "woman", "red", "left"):
            assert abs(np.linalg.norm(synthetic_encode(word, 16, 7)) - 1.0) <= 1e-9

    def test_distinct_words_differ(self):
        a = synthetic_encode("man", 16, 7)
        b = synthetic_encode("woman", 16, 7)
        assert np.linalg.norm(a - b) > 1e-3

    def test_seed_changes_vector(self):
        assert not np.allclose(synthetic_encode("man", 16, 7), synthetic_encode("man", 16, 8))

    def test_dim_guard(self):
        with pytest.raises(ConfigError):
            synthetic_encode("man", 1, 0)


class TestSyntheticEncoderCache:
    def test_cached_vector_is_bitwise_the_hash_vector(self):
        enc = SyntheticEncoder(16, 7)
        first = enc.encode_word("man")
        assert enc.encode_word("man") is first
        np.testing.assert_array_equal(first, synthetic_encode("man", 16, 7))

    def test_cached_vector_is_read_only(self):
        vec = SyntheticEncoder(16, 7).encode_word("man")
        with pytest.raises(ValueError):
            vec[0] = 0.0

    def test_cache_is_per_instance(self):
        assert SyntheticEncoder(16, 7).encode_word("man") is not SyntheticEncoder(16, 7).encode_word("man")


class TestEmbedReference:
    def test_single_word_holistic_equals_keyword(self):
        enc = SyntheticEncoder(16, 3)
        bundle = embed_reference("man", set(), enc)
        assert bundle.holistic.shape == (1, 16)
        np.testing.assert_allclose(bundle.holistic[0], bundle.keyword_embeddings[0], atol=1e-12)

    def test_all_stop_words_still_produces_holistic(self):
        enc = SyntheticEncoder(16, 3)
        bundle = embed_reference("the a is", {"the", "a", "is"}, enc)
        assert bundle.keyword_embeddings.shape == (0, 16)
        assert bundle.holistic.shape == (1, 16)

    def test_two_word_mean(self):
        enc = SyntheticEncoder(16, 3)
        bundle = embed_reference("man left", set(), enc)
        mean = (enc.encode_word("man") + enc.encode_word("left")) / 2.0
        np.testing.assert_allclose(bundle.holistic[0], mean / np.linalg.norm(mean), atol=1e-12)

    def test_deterministic_given_seed(self):
        enc = SyntheticEncoder(16, 3)
        a = embed_reference("the man on the left", {"the", "on"}, enc)
        b = embed_reference("the man on the left", {"the", "on"}, enc)
        np.testing.assert_array_equal(a.holistic, b.holistic)
        np.testing.assert_array_equal(a.keyword_embeddings, b.keyword_embeddings)

    def test_adapter_error_carries_word_index(self):
        class Flaky(SyntheticEncoder):
            def encode_word(self, word):
                if word == "bad":
                    raise ValueError("boom")
                return super().encode_word(word)

            def encode_sentence(self, words):
                return super().encode_sentence([w for w in words if w != "bad"])

        with pytest.raises(AdapterError, match="keyword 1"):
            embed_reference("man bad", set(), Flaky(8, 0))

    def test_adapter_error_on_sentence_failure(self):
        class Broken(SyntheticEncoder):
            def encode_sentence(self, words):
                raise ValueError("boom")

        with pytest.raises(AdapterError, match="sentence"):
            embed_reference("man", set(), Broken(8, 0))


class _ZeroEncoder:
    def __init__(self, dim):
        self.dim = dim

    def encode_word(self, word):
        return np.zeros(self.dim)


class TestSceneAttributeTokens:
    def test_identity_projection_carries_bbox(self):
        enc = _ZeroEncoder(4)
        det = Detection(bbox=(0.0, 0.0, 1.0, 1.0), category="person", confidence=0.9)
        tokens = build_scene_attribute_tokens([det], enc, np.eye(8), 0.5, 10)
        np.testing.assert_array_equal(tokens, [[0, 0, 0, 0, 0, 0, 1, 1]])

    def test_empty_detections(self):
        tokens = build_scene_attribute_tokens([], _ZeroEncoder(4), np.eye(8))
        assert tokens.shape == (0, 8)

    def test_threshold_filters(self):
        enc = _ZeroEncoder(4)
        dets = [
            Detection(bbox=(0.0, 0.0, 0.5, 0.5), category="a", confidence=0.5),
            Detection(bbox=(0.1, 0.1, 0.9, 0.9), category="b", confidence=0.9),
        ]
        tokens = build_scene_attribute_tokens(dets, enc, np.eye(8), 0.7, 10)
        # the identity projection carries each box: the rows name the kept detections
        np.testing.assert_array_equal(tokens[:, 4:], [dets[1].bbox])

    def test_sorted_by_confidence_and_truncated(self):
        enc = _ZeroEncoder(4)
        dets = [
            Detection(bbox=(0.0, 0.0, 0.5, 0.5), category="a", confidence=0.71),
            Detection(bbox=(0.1, 0.1, 0.9, 0.9), category="b", confidence=0.99),
            Detection(bbox=(0.2, 0.2, 0.8, 0.8), category="c", confidence=0.85),
        ]
        tokens = build_scene_attribute_tokens(dets, enc, np.eye(8), 0.7, 2)
        np.testing.assert_array_equal(tokens[:, 4:], [dets[1].bbox, dets[2].bbox])

    def test_rows_are_one_row_products(self):
        """Each row keeps the bits of its detection projected alone, the
        products the trained checkpoints were made with; one flat (K, d + 4)
        product rounds some entries differently."""
        rng = np.random.default_rng(29)
        enc = SyntheticEncoder(32, 5)
        w = rng.normal(size=(36, 32))
        dets = [
            Detection(bbox=(0.1 * i, 0.05, 0.1 * i + 0.3, 0.9), category=c, confidence=0.95 - 0.05 * i)
            for i, c in enumerate(["person", "chair", "cup", "dog", "phone"])
        ]
        tokens = build_scene_attribute_tokens(dets, enc, w, 0.7, 10)
        assert tokens.shape == (5, 32)
        for det, row in zip(dets, tokens):
            feat = np.concatenate([enc.encode_word(det.category), det.bbox])
            np.testing.assert_array_equal(row, (feat.reshape(1, -1) @ w)[0])

    def test_projection_dim_guard(self):
        with pytest.raises(ConfigError):
            build_scene_attribute_tokens([], _ZeroEncoder(4), np.eye(5))
        with pytest.raises(ConfigError, match="input dim 8"):
            build_scene_attribute_tokens([], _ZeroEncoder(4), np.zeros(8))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_count_monotone_in_threshold(self, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        enc = _ZeroEncoder(4)
        rng = np.random.default_rng(0)
        dets = [
            Detection(bbox=(0.0, 0.0, 0.5, 0.5), category="x", confidence=float(c))
            for c in rng.uniform(0, 1, size=6)
        ]
        n_lo = len(build_scene_attribute_tokens(dets, enc, np.eye(8), lo, 10))
        n_hi = len(build_scene_attribute_tokens(dets, enc, np.eye(8), hi, 10))
        assert n_hi <= n_lo <= len(dets)


class TestStopwordsFile:
    def test_default_list_contains_core_words(self):
        stop = default_stopwords()
        assert {"the", "a", "is", "are"} <= stop
        assert len(stop) >= 40

    def test_comments_and_blanks_ignored(self):
        stop = parse_stopwords("# header\nthe\n\na  # trailing\n")
        assert stop == {"the", "a"}


def test_detection_validation():
    with pytest.raises(InputError):
        Detection(bbox=(0.5, 0.0, 0.5, 1.0), category="x", confidence=0.9).validate()
    with pytest.raises(InputError):
        Detection(bbox=(0.0, 0.0, 1.0, 1.0), category="x", confidence=1.5).validate()
