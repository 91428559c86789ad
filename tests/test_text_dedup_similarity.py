"""Text analysis, dedup family, similarity search, multimodal plumbing."""

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _docs(n=60, dup_groups=5, seed=1):
    rng = np.random.default_rng(seed)
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    texts = []
    for i in range(n):
        body = " ".join(rng.choice(words, 30))
        texts.append(body)
    # inject exact duplicates
    for g in range(dup_groups):
        texts[n - 1 - g] = texts[g]
    # inject near-duplicates (one word changed)
    texts[10] = texts[0].replace(texts[0].split()[5], "OMEGA", 1)
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": texts,
            "lang": "en",
            "source": "synthetic",
            "n_chars": [len(t) for t in texts],
        }
    )


def _docs_ds(df):
    import ray.data as rd

    return rd.from_pandas(df).repartition(4)


class TestText:
    def test_token_counts(self):
        from signalsharp_ray.stages.text import token_counts

        df = _docs()
        out = token_counts(_docs_ds(df)).to_pandas().sort_values("doc_id")
        exp = df["text"].str.split().str.len().to_numpy()
        np.testing.assert_array_equal(out["n_tokens_ws"].to_numpy(), exp)

    def test_quality_scores(self):
        from signalsharp_ray.stages.text import quality_scores

        out = quality_scores(_docs_ds(_docs())).to_pandas()
        assert ((out["quality_score"] >= 0) & (out["quality_score"] <= 1)).all()
        assert (out["n_words"] == 30).all()

    def test_language_id(self):
        from signalsharp_ray.stages.text import language_id

        df = pd.DataFrame(
            {
                "doc_id": [0, 1, 2, 3],
                "text": [
                    "the cat sat on the mat and it was good for all of them",
                    "der Hund ist nicht mit der Katze und das ist ein Problem",
                    "le chat est sur la table et les enfants sont pour une fois",
                    "这是一个中文文本的例子用来测试语言识别功能的正确性表现",
                ],
                "lang": ["en", "de", "fr", "zh"],
                "source": "t",
                "n_chars": [10] * 4,
            }
        )
        out = language_id(_docs_ds(df)).to_pandas().sort_values("doc_id")
        assert out["pred_lang"].tolist() == ["en", "de", "fr", "zh"]

    def test_language_id_combining_marks_match_reference(self):
        """NFD text splits at each combining mark on both paths: the RE2
        tokenizer's [^\\p{L}]+ and _predict's [^\\W\\d_]+ both end a token
        at U+0301 ('cafe\\u0301' -> 'cafe'), so the vectorized pred_lang
        equals the row-at-a-time reference on NFD and NFC documents alike.
        Some predictions differ between the two forms ('é à ó' has no
        stopword, its NFD form has three pt ones)."""
        import unicodedata

        import pyarrow as pa

        from signalsharp_ray.stages.text import LanguageId

        docs = ["café le la de não", "São Paulo é uma cidade em que a gente para",
                "el niño y la niña en la montaña por una", "мой край и это не на что",
                "où est la fenêtre et les clés pour une", "Ärger über die Brücke und das ist nicht",
                "naïve résumé of the coöperation and it is", "é à ó", "ñ", ""]
        lid = LanguageId()
        preds = {}
        for form in ("NFC", "NFD"):
            texts = [unicodedata.normalize(form, d) for d in docs]
            got = lid(pa.table({"doc_id": np.arange(len(texts)), "text": texts}))
            preds[form] = got["pred_lang"].to_pylist()
            assert preds[form] == [lid._predict(t) for t in texts]
        assert unicodedata.normalize("NFD", "é") != "é"
        assert lid.word.findall(unicodedata.normalize("NFD", docs[0]))[-2:] == ["na", "o"]
        assert preds["NFC"][7] == "und" and preds["NFD"][7] == "pt"

    def test_fingerprints_deterministic(self):
        from signalsharp_ray.stages.text import fingerprints

        df = _docs()
        a = fingerprints(_docs_ds(df)).to_pandas().sort_values("doc_id")
        b = fingerprints(_docs_ds(df)).to_pandas().sort_values("doc_id")
        np.testing.assert_array_equal(a["fingerprint"].to_numpy(), b["fingerprint"].to_numpy())
        # identical texts -> identical fingerprints
        assert (
            a.set_index("doc_id")["fingerprint"][0]
            == a.set_index("doc_id")["fingerprint"][59]
        )


class TestDedup:
    def test_exact_dedup(self):
        from signalsharp_ray.stages.dedup import exact_dedup

        df = _docs(n=60, dup_groups=5)
        out = exact_dedup(_docs_ds(df)).to_pandas()
        n_distinct = df["text"].nunique()
        assert len(out) == n_distinct
        assert out["n_copies"].sum() == 60
        dup_reps = out[out["n_copies"] == 2]["doc_id"]
        assert set(dup_reps) == {0, 1, 2, 3, 4}  # min doc_id representative

    def test_minhash_finds_near_dups(self):
        from signalsharp_ray.stages.dedup import minhash_dedup_pairs

        df = _docs()
        out = minhash_dedup_pairs(
            _docs_ds(df), threshold=0.5, num_perm=64, bands=32
        ).to_pandas()
        pairs = set(map(tuple, out[["doc_a", "doc_b"]].to_numpy()))
        assert (0, 59) in pairs  # exact dup pair -> jaccard 1.0
        assert (0, 10) in pairs  # near dup (1 word changed)
        assert out.set_index(["doc_a", "doc_b"]).loc[(0, 59), "jaccard"] == 1.0

    def test_simhash_near_dups(self):
        from signalsharp_ray.stages.dedup import simhash_near_dup_pairs

        df = _docs()
        out = simhash_near_dup_pairs(_docs_ds(df), max_hamming=3).to_pandas()
        pairs = set(map(tuple, out[["doc_a", "doc_b"]].to_numpy()))
        assert (0, 59) in pairs
        assert (out[(out["doc_a"] == 0) & (out["doc_b"] == 59)]["hamming"] == 0).all()


class TestSimilarity:
    def _emb_ds(self, n=200, dim=16, seed=0):
        import ray.data as rd

        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, dim))
        df = pd.DataFrame(
            {
                "vec_id": np.arange(n, dtype=np.int64),
                "embedding": [row.astype(np.float32) for row in m],
                "label": rng.integers(0, 5, n).astype(np.int32),
            }
        )
        return rd.from_pandas(df).repartition(4), m

    def test_knn_matches_numpy_oracle(self):
        from signalsharp_ray.stages.similarity import knn_brute_force

        ds, m = self._emb_ds()
        q = m[0]
        out = knn_brute_force(ds, q[None, :], k=5)
        mm = m.astype(np.float32).astype(np.float64)
        norm = mm / np.linalg.norm(mm, axis=1, keepdims=True)
        qq = norm[0]
        sims = norm @ qq
        exp_ids = np.argsort(-sims)[:5]
        assert set(out["vec_id"]) == set(exp_ids)
        assert out["cosine"].max() == pytest.approx(1.0)

    def test_ivf_knn_recall(self):
        from signalsharp_ray.stages.similarity import ivf_knn, knn_brute_force

        ds, m = self._emb_ds(n=300)
        q = m[7]
        exact = knn_brute_force(ds, q[None, :], k=5)
        approx = ivf_knn(ds, q[None, :], k=5, n_clusters=8, n_probe=4)
        inter = set(exact["vec_id"]) & set(approx["vec_id"])
        assert len(inter) >= 3  # decent recall with 4/8 probes

    def test_lsh_knn_recall_and_determinism(self):
        from signalsharp_ray.stages.similarity import knn_brute_force, lsh_knn

        ds, m = self._emb_ds(n=300)
        q = m[7]
        exact = knn_brute_force(ds, q[None, :], k=5)
        approx = lsh_knn(ds, q[None, :], k=5, n_tables=8, n_bits=8, n_probe_bits=1)
        inter = set(exact["vec_id"]) & set(approx["vec_id"])
        assert len(inter) >= 3  # multi-table + multiprobe recall
        # precision is exact: every returned cosine equals the true cosine
        # (rows are float32-stored; the query stays raw float64, as passed)
        mm = m.astype(np.float32).astype(np.float64)
        norm = mm / np.linalg.norm(mm, axis=1, keepdims=True)
        sims = norm @ (m[7] / np.linalg.norm(m[7]))
        for _, row in approx.iterrows():
            assert row["cosine"] == pytest.approx(sims[int(row["vec_id"])], abs=1e-12)
        # seeded planes: a second run returns the identical id set
        again = lsh_knn(ds, q[None, :], k=5, n_tables=8, n_bits=8, n_probe_bits=1)
        assert list(again["vec_id"]) == list(approx["vec_id"])

    def test_embedding_near_dup(self):
        import ray.data as rd

        from signalsharp_ray.stages.similarity import embedding_near_dup_pairs

        rng = np.random.default_rng(2)
        base = rng.normal(size=(50, 8))
        near = base[3] + rng.normal(0, 0.01, 8)  # near-dup of vec 3
        m = np.vstack([base, near])
        df = pd.DataFrame(
            {
                "vec_id": np.arange(51, dtype=np.int64),
                "embedding": [r.astype(np.float32) for r in m],
                "label": 0,
            }
        )
        out = embedding_near_dup_pairs(
            rd.from_pandas(df).repartition(2), threshold=0.99
        ).to_pandas()
        pairs = set(map(tuple, out[["a", "b"]].to_numpy()))
        assert (3, 50) in pairs


class TestMultimodal:
    def test_feature_extraction_fake(self):
        import ray.data as rd

        from signalsharp_ray.stages.multimodal import extract_features, synth_media_table

        media = synth_media_table(32)
        out = extract_features(rd.from_pandas(media), mode="fake").to_pandas()
        assert len(out) == 32
        assert all(len(f) == 16 for f in out["feature"])
        # deterministic: same payload -> same feature
        out2 = extract_features(rd.from_pandas(media), mode="fake").to_pandas()
        f1 = out.sort_values("media_id")["feature"].iloc[0]
        f2 = out2.sort_values("media_id")["feature"].iloc[0]
        np.testing.assert_array_equal(np.asarray(f1), np.asarray(f2))

    def test_strict_mode_raises(self):
        from signalsharp_ray.stages.multimodal import MediaDecoder

        with pytest.raises(NotImplementedError, match="stubbed"):
            MediaDecoder(mode="strict").decode(b"xx", "image")

    def test_frame_sampling(self):
        import ray.data as rd

        from signalsharp_ray.stages.multimodal import sample_frames, synth_media_table

        media = synth_media_table(32)
        out = sample_frames(rd.from_pandas(media), every_n=2).to_pandas()
        n_videos = (media["kind"] == "video").sum()
        assert len(out) == n_videos * 4  # 8 frames, every 2nd
        assert set(out["frame_index"].unique()) == {0, 2, 4, 6}


def test_verify_jaccard_broadcast_and_distributed_plans_agree():
    """Both verification plans (candidate-bounded broadcast vs the fully
    distributed inverted-index join) must produce identical pairs."""
    from signalsharp_ray.stages.dedup import minhash_lsh_candidates, verify_jaccard

    df = _docs(n=80, dup_groups=8)
    ds = _docs_ds(df)
    cands = minhash_lsh_candidates(ds, num_perm=64, bands=32).materialize()
    fast = (
        verify_jaccard(ds, cands, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    dist = (
        verify_jaccard(ds, cands, threshold=0.5, broadcast_pair_limit=0)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert len(fast) == len(dist) > 0
    pd.testing.assert_frame_equal(
        fast[["doc_a", "doc_b"]], dist[["doc_a", "doc_b"]], check_dtype=False
    )
    np.testing.assert_allclose(fast["jaccard"], dist["jaccard"], rtol=1e-12)


def test_vocabulary_topk_matches_pandas():
    from signalsharp_ray.stages.text import vocabulary_topk

    df = _docs(n=50)
    out = vocabulary_topk(_docs_ds(df), k=10)
    import re as _re

    words = (
        df["text"].str.lower().str.findall(_re.compile(r"\w+")).explode().value_counts()
    )
    want = (
        words.rename_axis("word")
        .reset_index(name="n")
        .sort_values(["n", "word"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    assert list(out["word"]) == list(want["word"])
    assert list(out["n"]) == list(want["n"])


def test_contamination_scores_flags_probe_overlap():
    from signalsharp_ray.stages.text import contamination_scores

    df = _docs(n=40)
    probes = [df["text"][0]]  # doc 0 and its near-dup (doc 10) must flag
    out = (
        contamination_scores(_docs_ds(df), probes, threshold=0.5)
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[0, "contaminated"]  # identical to the probe
    assert out.loc[10, "max_probe_jaccard"] > 0.5  # near-dup of the probe
    assert out["max_probe_jaccard"].between(0, 1).all()


class TestNativeMediaCodecs:
    """Native (library-free) media decode: byte-exact PNM round-trips, WAV
    via the stdlib, video as concatenated frames, and a real resize."""

    def test_pnm_roundtrip_gray_and_rgb(self):
        from signalsharp_ray.stages.multimodal import _parse_pnm, encode_pnm

        rng = np.random.default_rng(0)
        for shape in ((12, 7), (5, 9, 3)):
            img = rng.integers(0, 256, size=shape, dtype=np.uint8)
            dec, used = _parse_pnm(encode_pnm(img))
            assert used == len(encode_pnm(img))
            np.testing.assert_array_equal(dec, img)

    def test_pnm_comment_header(self):
        from signalsharp_ray.stages.multimodal import _parse_pnm

        img = b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4])
        dec, _ = _parse_pnm(img)
        np.testing.assert_array_equal(dec, [[1, 2], [3, 4]])

    def test_wav_roundtrip(self):
        from signalsharp_ray.stages.multimodal import _parse_wav, _synth_wav

        wav = _synth_wav(np.random.default_rng(1))
        pcm = _parse_wav(wav)
        assert pcm.dtype == np.float32
        assert pcm.size == 1600
        assert np.abs(pcm).max() <= 1.0
        assert np.abs(pcm).max() > 0.1  # actually a signal, not silence

    def test_video_stream_roundtrip(self):
        from signalsharp_ray.stages.multimodal import _parse_pnm_stream, encode_pnm

        rng = np.random.default_rng(2)
        frames = rng.integers(0, 256, size=(4, 6, 5, 3), dtype=np.uint8)
        payload = b"".join(encode_pnm(f) for f in frames)
        dec = _parse_pnm_stream(payload)
        np.testing.assert_array_equal(dec, frames)

    def test_native_extract_features_end_to_end(self):
        import ray.data as rd

        from signalsharp_ray.stages.multimodal import (
            extract_features,
            synth_media_table,
        )

        media = synth_media_table(24, real_payloads=True)
        out = extract_features(rd.from_pandas(media), mode="native").to_pandas()
        assert len(out) == 24
        assert all(len(f) == 16 for f in out["feature"])
        # image features: mean pixel in [0, 255]
        img_rows = out[out["kind"] == "image"]
        assert all(0 <= np.asarray(f)[0] <= 255 for f in img_rows["feature"])

    def test_resize_images_real_pixels(self):
        import ray.data as rd

        from signalsharp_ray.stages.multimodal import (
            _parse_pnm,
            resize_images,
            synth_media_table,
        )

        media = synth_media_table(24, real_payloads=True)
        out = resize_images(rd.from_pandas(media), 8, 8).to_pandas()
        n_images = (media["kind"] == "image").sum()
        assert len(out) == n_images
        for payload in out["payload"]:
            img, _ = _parse_pnm(bytes(payload))
            assert img.shape[:2] == (8, 8)
        # nearest-neighbor: resized pixels are a subset of source pixels
        src = media[media["kind"] == "image"].iloc[0]
        rs = out[out["media_id"] == src["media_id"]].iloc[0]
        src_img, _ = _parse_pnm(bytes(src["payload"]))
        rs_img, _ = _parse_pnm(bytes(rs["payload"]))
        assert np.isin(rs_img, src_img).all()

    def test_strict_mode_still_raises(self):
        from signalsharp_ray.stages.multimodal import MediaDecoder

        with pytest.raises(NotImplementedError):
            MediaDecoder("strict").decode(b"\xff\xd8jpegdata", "image")


def _brute_jaccard_pairs(df, threshold, shingle_k=3):
    """Driver-side all-pairs reference for exact_jaccard_pairs."""
    from signalsharp_ray.stages.dedup import _shingle_hashes

    sets = {
        int(d): set(_shingle_hashes(t or "", shingle_k).tolist())
        for d, t in zip(df["doc_id"], df["text"])
    }
    rows = []
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            sa, sb = sets[a], sets[b]
            if not sa or not sb:
                continue
            inter = len(sa & sb)
            union = len(sa | sb)
            j = inter / union
            if np.floor(j * 1e6 + 0.5) / 1e6 >= threshold:
                rows.append((a, b, j))
    return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])


class TestPrefixFilteredJaccard:
    def test_matches_brute_force(self):
        """PPJoin prefix filtering is exact: identical pair set + values."""
        from signalsharp_ray.stages.dedup import exact_jaccard_pairs

        df = _docs(n=80, dup_groups=8)
        got = (
            exact_jaccard_pairs(_docs_ds(df), threshold=0.5, n_buckets=8)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        want = _brute_jaccard_pairs(df, 0.5).sort_values(
            ["doc_a", "doc_b"]
        ).reset_index(drop=True)
        assert len(got) == len(want) > 0
        pd.testing.assert_frame_equal(
            got[["doc_a", "doc_b"]].astype(np.int64),
            want[["doc_a", "doc_b"]].astype(np.int64),
        )
        np.testing.assert_allclose(got["jaccard"], want["jaccard"], rtol=1e-12)

    def test_hot_shingle_skew_bounded_and_exact(self):
        """One shingle in 50% of docs (the stop-word pair bomb): the prefix
        filter must keep candidate volume near the qualifying-pair count
        (NOT O(df^2)) and stay exact."""
        import ray.data as rd

        from signalsharp_ray.common.raytools import hash_bucket_aggregate
        from signalsharp_ray.stages.dedup import (
            _prefix_candidates,
            _prefix_index,
            _shingle_index,
            exact_jaccard_pairs,
        )

        rng = np.random.default_rng(7)
        n = 200
        texts = []
        for i in range(n):
            uniq = " ".join(f"w{i}x{j}" for j in range(20))
            if i % 2 == 0:
                # the same hot 3-shingle in half the corpus
                uniq = "the quick fox " + uniq
            texts.append(uniq)
        # two genuine near-dup pairs
        texts[1] = texts[0] + " tail"
        texts[3] = texts[2]
        df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
        ds = rd.from_pandas(df).repartition(4)

        t_eff = 0.5 - 1e-6
        index = _shingle_index(ds).materialize()
        dfreq = hash_bucket_aggregate(index, ["g"], [], count_alias="df", n_buckets=8)
        cands = _prefix_candidates(
            _prefix_index(index, dfreq, t_eff, n_buckets=8), t_eff, n_buckets=8
        ).to_pandas()
        # hot shingle df=100 -> 4950 naive pairs; prefix filtering must
        # keep candidates within a small constant of the true pair count
        assert len(cands) <= 50, f"candidate explosion: {len(cands)}"

        got = (
            exact_jaccard_pairs(ds, threshold=0.5, n_buckets=8)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        want = _brute_jaccard_pairs(df, 0.5).sort_values(
            ["doc_a", "doc_b"]
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["doc_a", "doc_b"]].astype(np.int64),
            want[["doc_a", "doc_b"]].astype(np.int64),
        )


class TestConnectedComponents:
    def test_matches_union_find(self):
        """Distributed min-label propagation == driver union-find."""
        import ray.data as rd

        from signalsharp_ray.stages.dedup import connected_components

        rng = np.random.default_rng(11)
        # several chains + stars + isolated pairs over 300 nodes
        edges = []
        nodes = np.arange(300, dtype=np.int64)
        rng.shuffle(nodes)
        # chains of length 4 (diameter 3 exercises multiple rounds)
        for s in range(0, 120, 4):
            chain = nodes[s:s + 4]
            edges += [(int(chain[i]), int(chain[i + 1])) for i in range(3)]
        # stars
        for s in range(120, 240, 8):
            hub, *leaves = nodes[s:s + 8]
            edges += [(int(hub), int(l)) for l in leaves]
        # random extra edges
        for _ in range(40):
            a, b = rng.choice(nodes[:240], 2, replace=False)
            if a != b:
                edges.append((int(a), int(b)))
        pairs = pd.DataFrame(edges, columns=["doc_a", "doc_b"]).astype(np.int64)

        got = (
            connected_components(rd.from_pandas(pairs).repartition(3))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        want = pd.DataFrame(
            {
                "doc_id": sorted(parent),
                "cluster_rep": [find(d) for d in sorted(parent)],
            }
        ).astype(np.int64)
        pd.testing.assert_frame_equal(got.astype(np.int64), want)


def test_minhasher_batched_equals_per_doc():
    """The whole-batch reduceat path must produce IDENTICAL signatures to
    the per-doc signature() reference for every doc, including empties."""
    from signalsharp_ray.stages.dedup import MinHasher

    df = _docs(n=40, dup_groups=4)
    df.loc[7, "text"] = ""          # empty doc
    df.loc[9, "text"] = "one two"   # fewer tokens than shingle_k
    mh = MinHasher(num_perm=32)
    out = mh(df)
    for i, t in enumerate(df["text"]):
        np.testing.assert_array_equal(
            np.asarray(out["minhash"].iloc[i]), mh.signature(t or "")
        )
