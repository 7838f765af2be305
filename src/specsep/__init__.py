"""Single-channel two-speaker source separation with gain-adapted HMM and
VQ spectral models, joint Viterbi/gain-ratio inference, and binary
time-frequency masking."""

from .decode import (DecodeResult, brute_force_decode, gfhmm_infer,
                     gvq_infer, maximize_theta, parallel_viterbi)
from .evaluate import (mix_at_tir, normalize_equal_power, run_experiment,
                       sample_hmm_frames, snr, synth_source)
from .gain import (GainContext, GainPair, estimate_gy, g_of_theta,
                   gains_from_theta)
from .mixmax import log_b_table, mixmax_combine
from .models import (Codebook, HmmModel, ModelMismatchError, baum_welch,
                     init_hmm_from_codebook, load_model, save_model)
from .quantize import gvq_score, train_lbg
from .separate import separate
from .signal import (AudioSignal, FramingConfig, apply_masks_and_reconstruct,
                     frame_signal, log_spectra, read_wav, write_wav)

__version__ = "0.1.0"
