"""Pinned SHA-256 digests of ``carved_flat`` and ``observed_flat``.

Every performance change to the fuzz -> carve pipeline must keep its
output bit-identical.  The digests below were recorded before the
flat-native debloat tests and the sort-based dedupe went in, for all
eleven Table II programs plus ARD and MSI (small dims, two fuzz seeds)
and PRL3D at 96^3, whose carve builds rank-1, rank-2 and rank-3 cell
hulls.
"""

import hashlib

import numpy as np
import pytest

from repro import Kondo, get_program
from repro.fuzzing import FuzzConfig

#: (program, dims, rng_seed) -> (carved_flat sha256, observed_flat sha256)
DIGESTS = {
    ("CS", (32, 32), 3):
        ("9a3c90239a95e8cdaea396da8f397dd7bd280eed46648a00ee7af54077ee8713",
         "9a3c90239a95e8cdaea396da8f397dd7bd280eed46648a00ee7af54077ee8713"),
    ("CS", (32, 32), 11):
        ("9a3c90239a95e8cdaea396da8f397dd7bd280eed46648a00ee7af54077ee8713",
         "9a3c90239a95e8cdaea396da8f397dd7bd280eed46648a00ee7af54077ee8713"),
    ("PRL2D", (32, 32), 3):
        ("bbd2988fe62be0dde7efc3d285a84f47dae4167499288726ad9ad88f7ab78c22",
         "117c39b8c3a831a32c89c4e1b9ae5376bfccf390303551e365653f51f7590b43"),
    ("PRL2D", (32, 32), 11):
        ("bbd2988fe62be0dde7efc3d285a84f47dae4167499288726ad9ad88f7ab78c22",
         "117c39b8c3a831a32c89c4e1b9ae5376bfccf390303551e365653f51f7590b43"),
    ("LDC2D", (32, 32), 3):
        ("ebdaf370ba186d3d3f6e7738160ca0ea0d420bea55df12fb5c7e0c81c732be0b",
         "ebdaf370ba186d3d3f6e7738160ca0ea0d420bea55df12fb5c7e0c81c732be0b"),
    ("LDC2D", (32, 32), 11):
        ("3ea26372ffe48750d3e7019e039c564c5834866c625f3dd8e177495934c92bdf",
         "0ae37378be79223242cb290d1c887f9f3a61698d15ac40c39c880bf9ff704cd3"),
    ("RDC2D", (32, 32), 3):
        ("ed5950e9fd1a20fda488c55e766383da195687241023f9fdac3c9a02cd7e3eb6",
         "ed5950e9fd1a20fda488c55e766383da195687241023f9fdac3c9a02cd7e3eb6"),
    ("RDC2D", (32, 32), 11):
        ("2e2ba1bb37968a17bb2ebaa9a567728021c07ded19a81d1984f2de67486a8665",
         "2e2ba1bb37968a17bb2ebaa9a567728021c07ded19a81d1984f2de67486a8665"),
    ("CS1", (32, 32), 3):
        ("d0393cec67c64e248d1e478bf4f45636ea5e0b2a1f522ec7fea191c93d9b842f",
         "29fed384da7ea62ba040fd95760b43fbcc5ba8b521dd7de2e1ba7e165716aab8"),
    ("CS1", (32, 32), 11):
        ("d0393cec67c64e248d1e478bf4f45636ea5e0b2a1f522ec7fea191c93d9b842f",
         "1795e5719b44428c5039ee9b7e805ba1b545b761b8025c1fb9e983454203b64a"),
    ("CS2", (32, 32), 3):
        ("8ff3dd8654153b7e3e901c4a794bb8d523f0b51ba13853b66d29cd034415dfc0",
         "f198735d673774f1adec8d1d24eb29ec00b04de4bf45f07949f31c168546f864"),
    ("CS2", (32, 32), 11):
        ("8ff3dd8654153b7e3e901c4a794bb8d523f0b51ba13853b66d29cd034415dfc0",
         "5aec13eccede26a7cadd92846ea55d425ba580c8b1897f26c3fa55cdc47c3d91"),
    ("CS3", (32, 32), 3):
        ("4f339443d0f193066be69e3140eae1ed031de596bdbf1a93792d0f616d3171bc",
         "5afedbf1c1d1ac988d1c728bb1843b8b4e92f3944257a8eaf1fcf60a8e42af8e"),
    ("CS3", (32, 32), 11):
        ("4f339443d0f193066be69e3140eae1ed031de596bdbf1a93792d0f616d3171bc",
         "b765a8b02009b4b0d043fb35a33cdcedaa2047aaf41d92c3c66117b4f6f8bab6"),
    ("CS5", (32, 32), 3):
        ("d0393cec67c64e248d1e478bf4f45636ea5e0b2a1f522ec7fea191c93d9b842f",
         "d98bd6d6452dd7b5c6fa49fcd11d84c35ef10a3f1535413e60c585de973d7d5c"),
    ("CS5", (32, 32), 11):
        ("a66639fa91e5bde0fae478d2fd363468b3075fe497b177ed772af6581860109d",
         "0ffbb89df072aff289d2238c465a37e11afb284e4fdeb03cb252b0cbb7299742"),
    ("PRL3D", (16, 16, 16), 3):
        ("637051023ffb90285e96dc773592c2d97c4a7d4ebc27d7292511b8bc8cfc944f",
         "63cc493903f58e9f073cce9538a094cbe04cba55797261a22cf64e8c02cb6859"),
    ("PRL3D", (16, 16, 16), 11):
        ("637051023ffb90285e96dc773592c2d97c4a7d4ebc27d7292511b8bc8cfc944f",
         "63cc493903f58e9f073cce9538a094cbe04cba55797261a22cf64e8c02cb6859"),
    ("LDC3D", (16, 16, 16), 3):
        ("c2e513454e96d97bc413d733c337d4e2cc1951efb57844de0154a507f2a3b2c3",
         "4afc40901d90da4783c038c60fe27f5ea9ca01be4cfb91afcc196bf44d6c2b25"),
    ("LDC3D", (16, 16, 16), 11):
        ("462c8bcf3b0e1b0f0bf97a44043c14199b55ca43330c6d29791be33728046df4",
         "f7d0548ae8030aee45358830cc9436cb95581640d74c88ac940f0159b5cc2578"),
    ("RDC3D", (16, 16, 16), 3):
        ("61c52b45c07edb7d19f2ae368b3f1f1ba9955717ba0885f6be0c9687b0246c7a",
         "f6c35238961ef4984993e96f7b8c8234194a5039030ec891c22697b6b5117d8a"),
    ("RDC3D", (16, 16, 16), 11):
        ("19d3769ba025bac22ed5ed816e80269d08a902083fc2a6dbbbb4d26d9a2cec3c",
         "d094f0fbb7aaf7ea25bf286b02808e2d541f9671a7e0ac52e78fbe58127834e0"),
    ("ARD", (16, 16, 16), 3):
        ("395a41572b174edf538f869052cf254ce051df9ca96a378ae5417e50bd607c51",
         "395a41572b174edf538f869052cf254ce051df9ca96a378ae5417e50bd607c51"),
    ("ARD", (16, 16, 16), 11):
        ("395a41572b174edf538f869052cf254ce051df9ca96a378ae5417e50bd607c51",
         "395a41572b174edf538f869052cf254ce051df9ca96a378ae5417e50bd607c51"),
    ("MSI", (16, 16, 16), 3):
        ("a4c82b0ddfd17247ece12f806ba89995e86c662a51d8196d8fc7d52b1c2fe9eb",
         "a4c82b0ddfd17247ece12f806ba89995e86c662a51d8196d8fc7d52b1c2fe9eb"),
    ("MSI", (16, 16, 16), 11):
        ("a4c82b0ddfd17247ece12f806ba89995e86c662a51d8196d8fc7d52b1c2fe9eb",
         "a4c82b0ddfd17247ece12f806ba89995e86c662a51d8196d8fc7d52b1c2fe9eb"),
    ("PRL3D", (96, 96, 96), 3):
        ("ab754d350ae4d1475d565be62c667e79e2844ba33a8b05b44249138b146ecb61",
         "b9f7aa58d426ae1287a65d0c726d0a56e54692221783b267e2a691aaa74fa44b"),
    ("PRL3D", (96, 96, 96), 11):
        ("cc6a53164edfabd297817e617db7fdd88dd4ff06c0a1bb0718ba4e47feb56878",
         "2a4b0ec17fa950961fb5d1acf5872952f69e9761b7826bdf45b6606e9e5dd1b0"),
}


def _sha256(flat: np.ndarray) -> str:
    arr = np.ascontiguousarray(flat, dtype=np.int64)
    return hashlib.sha256(arr.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "name,dims,seed", sorted(DIGESTS),
    ids=lambda p: "x".join(map(str, p)) if isinstance(p, tuple) else str(p),
)
def test_carve_digest_pinned(name, dims, seed):
    result = Kondo(get_program(name), dims,
                   fuzz_config=FuzzConfig(rng_seed=seed)).analyze()
    carved, observed = DIGESTS[(name, dims, seed)]
    assert _sha256(result.observed_flat) == observed
    assert _sha256(result.carved_flat) == carved
