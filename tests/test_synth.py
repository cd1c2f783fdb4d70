import dataclasses
import io
import tracemalloc
import wave
from unittest import mock

import numpy as np
import pytest

from churnfusion import synth
from churnfusion.audio_features import hpss_median, stft_magnitude
from churnfusion.data_model import NEGATIVE_LABELS, serialize_customer_table
from churnfusion.errors import BadWav, InvalidConfig, SchemaMismatch
from churnfusion.synth import (
    SynthConfig,
    SyntheticCohort,
    clip_to_wav_bytes,
    generate_cohort,
    generate_ser_corpus,
    read_cohort,
    synth_audio,
    wav_bytes_to_clip,
    write_cohort,
)


def hpss_shares(clip):
    spec = stft_magnitude(clip, 1024, 256)
    harm, perc = hpss_median(spec)
    eh = float(np.sum(harm.magnitudes**2))
    ep = float(np.sum(perc.magnitudes**2))
    return eh / (eh + ep), ep / (eh + ep)


def churn_fl_correlation(cohort):
    churn = cohort.table.churn_outcome.astype(float)
    return float(np.corrcoef(cohort.true_fl, churn)[0, 1])


class TestSynthAudio:
    def test_happiness_is_harmonic(self):
        harm_share, _ = hpss_shares(synth_audio("Happiness", 2.0, 0))
        assert harm_share > 0.7

    def test_anger_is_percussive(self):
        _, perc_share = hpss_shares(synth_audio("Anger", 2.0, 0))
        assert perc_share > 0.5

    def test_duration_bounds(self):
        with pytest.raises(InvalidConfig):
            synth_audio("Anger", 0.1, 0)
        with pytest.raises(InvalidConfig):
            synth_audio("Anger", 11.0, 0)

    def test_deterministic_per_seed(self):
        a = synth_audio("Sadness", 1.0, 42)
        b = synth_audio("Sadness", 1.0, 42)
        assert np.array_equal(a.samples, b.samples)


class TestGenerateCohort:
    def test_same_config_twice_byte_identical(self):
        cfg = SynthConfig(n_customers=50, seed=7)
        a, b = generate_cohort(cfg), generate_cohort(cfg)
        assert serialize_customer_table(a.table) == serialize_customer_table(b.table)
        for ref in a.audio_clips:
            assert clip_to_wav_bytes(a.audio_clips[ref]) == clip_to_wav_bytes(b.audio_clips[ref])
        assert np.array_equal(a.risk_tier, b.risk_tier)
        assert np.array_equal(a.true_fl, b.true_fl)

    def test_zero_coupling_decorrelates_fl_and_churn(self):
        cohort = generate_cohort(SynthConfig(n_customers=2000, coupling=0.0, seed=1))
        assert abs(churn_fl_correlation(cohort)) < 0.1

    def test_high_coupling_correlation_signs(self):
        cohort = generate_cohort(SynthConfig(n_customers=2000, coupling=0.9, seed=1))
        assert churn_fl_correlation(cohort) < 0
        churn = cohort.table.churn_outcome.astype(float)
        negative = np.array(
            [1.0 if _is_negative(cohort, ref) else 0.0 for ref in cohort.table.audio_ref]
        )
        assert float(np.corrcoef(negative, churn)[0, 1]) > 0

    def test_churn_rate_near_base_rate(self):
        cfg = SynthConfig(n_customers=2000, churn_base_rate=0.25, coupling=0.9, seed=3)
        cohort = generate_cohort(cfg)
        rate = np.mean(cohort.table.churn_outcome)
        bound = 3 * np.sqrt(0.25 * 0.75 / 2000)
        assert abs(rate - 0.25) <= bound

    def test_labeled_fraction_and_audio_resolution(self):
        cfg = SynthConfig(n_customers=400, labeled_fl_fraction=0.3, seed=5)
        cohort = generate_cohort(cfg)
        labeled = int(np.sum(~np.isnan(cohort.table.fl_label)))
        assert 0.2 < labeled / 400 < 0.4
        for ref in cohort.table.audio_ref:
            assert ref in cohort.audio_clips

    def test_monotone_coupling_strengthens_correlation(self):
        def mean_abs_corr(coupling):
            vals = [
                abs(
                    churn_fl_correlation(
                        generate_cohort(SynthConfig(n_customers=1000, coupling=coupling, seed=s))
                    )
                )
                for s in range(4)
            ]
            return np.mean(vals)

        assert mean_abs_corr(0.9) > mean_abs_corr(0.4) > mean_abs_corr(0.0) - 0.05

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_customers=0)
        with pytest.raises(InvalidConfig):
            SynthConfig(churn_base_rate=1.0)
        with pytest.raises(InvalidConfig):
            SynthConfig(coupling=1.5)
        with pytest.raises(InvalidConfig):
            SynthConfig(labeled_fl_fraction=0.0)


def _is_negative(cohort, ref):
    # click trains are mostly silence between bursts; tone stacks are not
    samples = cohort.audio_clips[ref].samples
    return float(np.median(np.abs(samples))) < 0.05


class TestSerCorpus:
    def test_balanced_labels(self):
        clips, labels = generate_ser_corpus(5, 1.0, 0)
        assert len(clips) == 20
        assert sum(labels) == 10

    def test_deterministic(self):
        a, _ = generate_ser_corpus(2, 1.0, 3)
        b, _ = generate_ser_corpus(2, 1.0, 3)
        for x, y in zip(a, b):
            assert np.array_equal(x.samples, y.samples)


class TestCohortIO:
    def test_wav_round_trip(self):
        clip = synth_audio("Happiness", 1.0, 0)
        again = wav_bytes_to_clip(clip_to_wav_bytes(clip))
        assert again.sample_rate == clip.sample_rate
        assert np.allclose(again.samples, clip.samples, atol=1.0 / 32000)

    def test_write_read_round_trip(self, tmp_path):
        cohort = generate_cohort(SynthConfig(n_customers=12, seed=2))
        write_cohort(cohort, tmp_path)
        again = read_cohort(tmp_path)
        assert again.table.feature_names == cohort.table.feature_names
        assert again.table.ids == cohort.table.ids
        assert again.risk_tier.tolist() == cohort.risk_tier.tolist()
        assert set(again.audio_clips) == set(cohort.audio_clips)
        assert np.array_equal(again.true_fl, cohort.true_fl)

    def test_ground_truth_must_cover_every_id(self, tmp_path):
        write_cohort(generate_cohort(SynthConfig(n_customers=30, seed=2)), tmp_path)
        lines = (tmp_path / "ground_truth.csv").read_text(encoding="utf-8").splitlines()
        del lines[2:21]
        (tmp_path / "ground_truth.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch, match="c00001"):
            read_cohort(tmp_path)

    def test_truth_rows_align_to_table_order(self, tmp_path):
        cohort = generate_cohort(SynthConfig(n_customers=20, seed=3))
        write_cohort(cohort, tmp_path)
        path = tmp_path / "ground_truth.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8")
        again = read_cohort(tmp_path)
        assert again.risk_tier.tolist() == cohort.risk_tier.tolist()
        assert np.array_equal(again.true_fl, cohort.true_fl)

    def test_named_feature_columns_round_trip(self, tmp_path):
        base = generate_cohort(SynthConfig(n_customers=6, n_features=2, seed=5))
        true_fl = base.true_fl.copy()
        true_fl[2] = np.nan  # an unknown true FL is written as an empty cell
        # names holding a comma or a quote are quoted in the header
        for names, header in (
            (("age", "income"), "id,age,income,"),
            (("income, net", 'say "hi"'), 'id,"income, net","say ""hi""",'),
        ):
            out = tmp_path / names[0]
            table = dataclasses.replace(base.table, feature_names=names)
            cohort = SyntheticCohort(table, base.audio_clips, base.risk_tier, true_fl)
            write_cohort(cohort, out)
            assert (out / "table.csv").read_text(encoding="utf-8").startswith(
                header + "fl_label,churn_outcome,audio_ref\n"
            )
            again = read_cohort(out)
            assert again.table.feature_names == names
            assert np.array_equal(again.table.features, table.features)
            assert again.risk_tier.tolist() == cohort.risk_tier.tolist()
            assert np.array_equal(again.true_fl, true_fl, equal_nan=True)
            rewritten = out / "again"
            write_cohort(again, rewritten)
            for name in ("table.csv", "ground_truth.csv", "manifest.csv"):
                assert (rewritten / name).read_bytes() == (out / name).read_bytes()

    def test_ids_holding_a_comma_or_quote_round_trip(self, tmp_path):
        base = generate_cohort(SynthConfig(n_customers=3, seed=5))
        ids = ("a,1", 'b"2', "c3")
        table = dataclasses.replace(base.table, ids=ids)
        cohort = SyntheticCohort(table, base.audio_clips, base.risk_tier, base.true_fl)
        write_cohort(cohort, tmp_path)
        manifest = (tmp_path / "manifest.csv").read_text(encoding="utf-8")
        assert manifest.splitlines()[1:3] == ['"a,1",audio/c00000.wav', '"b""2",audio/c00001.wav']
        again = read_cohort(tmp_path)
        assert again.table.ids == ids
        assert again.risk_tier.tolist() == cohort.risk_tier.tolist()
        assert np.array_equal(again.true_fl, cohort.true_fl, equal_nan=True)
        assert set(again.audio_clips) == set(cohort.audio_clips)

    def test_truth_needs_one_entry_per_row(self):
        cohort = generate_cohort(SynthConfig(n_customers=5, seed=1))
        with pytest.raises(SchemaMismatch, match="risk_tier"):
            SyntheticCohort(cohort.table, cohort.audio_clips, cohort.risk_tier[:4], cohort.true_fl)
        with pytest.raises(SchemaMismatch, match="true_fl"):
            SyntheticCohort(cohort.table, cohort.audio_clips, cohort.risk_tier, np.zeros((5, 1)))


class TestClipsOnLookup:
    def test_generate_makes_no_clip_and_write_makes_each_once(self, tmp_path, monkeypatch):
        made = mock.Mock(wraps=synth.synth_audio)
        monkeypatch.setattr(synth, "synth_audio", made)
        cohort = generate_cohort(SynthConfig(n_customers=25, seed=4))
        assert list(cohort.audio_clips) == list(cohort.table.audio_ref)
        assert len(cohort.audio_clips) == 25
        assert all(ref in cohort.audio_clips for ref in cohort.table.audio_ref)
        assert "c99999.wav" not in cohort.audio_clips
        assert made.call_count == 0
        write_cohort(cohort, tmp_path)
        assert made.call_count == 25

    def test_each_lookup_makes_a_fresh_equal_clip(self, monkeypatch):
        made = mock.Mock(wraps=synth.synth_audio)
        monkeypatch.setattr(synth, "synth_audio", made)
        clips = generate_cohort(SynthConfig(n_customers=3, seed=4)).audio_clips
        first, again = clips["c00001.wav"], clips["c00001.wav"]
        assert made.call_count == 2  # nothing is cached
        assert first is not again
        assert np.array_equal(first.samples, again.samples)
        with pytest.raises(KeyError):
            clips["c00003.wav"]
        with pytest.raises(TypeError):
            clips["c00001.wav"] = first

    def test_read_decodes_only_looked_up_clips(self, tmp_path, monkeypatch):
        cohort = generate_cohort(SynthConfig(n_customers=8, seed=6))
        write_cohort(cohort, tmp_path)
        decoded = mock.Mock(wraps=synth.wav_bytes_to_clip)
        monkeypatch.setattr(synth, "wav_bytes_to_clip", decoded)
        again = read_cohort(tmp_path)
        assert set(again.audio_clips) == set(cohort.audio_clips)
        assert decoded.call_count == 0
        clip = again.audio_clips["c00005.wav"]
        assert decoded.call_count == 1
        expected = wav_bytes_to_clip(clip_to_wav_bytes(cohort.audio_clips["c00005.wav"]))
        assert np.array_equal(clip.samples, expected.samples)

    @pytest.mark.parametrize("duration", [0.5, 2.0])
    def test_generate_and_write_peak_does_not_grow_with_clip_length(self, tmp_path, duration):
        # holding every clip would need 300 x 8000 x 8 B = 19 MB at 0.5 s, 77 MB at 2 s
        cfg = SynthConfig(n_customers=300, clip_duration_s=duration, seed=1)
        tracemalloc.start()
        try:
            write_cohort(generate_cohort(cfg), tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _wav(channels=1, width=2, frames=b"\x00\x01" * 2000):
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(16000)
        w.writeframes(frames)
    return buf.getvalue()


@pytest.mark.parametrize(
    "blob",
    [b"RIFF", b"", b"not a wav file at all", _wav(channels=2), _wav(width=1), _wav(frames=b"")],
    ids=["truncated", "empty", "not-riff", "stereo", "8-bit", "no-frames"],
)
def test_undecodable_wav_raises_bad_wav_naming_it(blob):
    with pytest.raises(BadWav, match="bad WAV audio/c00003.wav: "):
        wav_bytes_to_clip(blob, "audio/c00003.wav")
