"""Tests for the algorithm factory registry."""

import pytest

from repro.core.bsd import BSDDemux
from repro.core.hashed_mtf import HashedMTFDemux
from repro.core.registry import available_algorithms, make_algorithm
from repro.core.sequent import SequentDemux
from repro.hashing.functions import xor_fold

from conftest import make_pcbs


class TestLookupByName:
    @pytest.mark.parametrize(
        "name", ["linear", "bsd", "mtf", "multicache", "sendrecv",
                 "sequent", "hashed_mtf", "connection_id"]
    )
    def test_every_registered_name_constructs(self, name):
        algorithm = make_algorithm(name)
        assert algorithm.name == name
        for pcb in make_pcbs(3):
            algorithm.insert(pcb)
        assert len(algorithm) == 3

    def test_available_algorithms_sorted(self):
        names = list(available_algorithms())
        assert names == sorted(names)
        assert "sequent" in names

    def test_case_insensitive_name(self):
        assert isinstance(make_algorithm("BSD"), BSDDemux)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="known:"):
            make_algorithm("btree")


class TestParameterizedSpecs:
    def test_sequent_chain_count(self):
        demux = make_algorithm("sequent:h=51")
        assert isinstance(demux, SequentDemux)
        assert demux.nchains == 51

    def test_sequent_hash_function(self):
        demux = make_algorithm("sequent:h=7,hash=xor_fold")
        assert demux._hash is xor_fold

    def test_sequent_default_chains(self):
        assert make_algorithm("sequent").nchains == 19

    def test_hashed_mtf_cache_flag(self):
        on = make_algorithm("hashed_mtf:h=5,cache=yes")
        off = make_algorithm("hashed_mtf:h=5,cache=no")
        assert isinstance(on, HashedMTFDemux)
        assert on._per_chain_cache is True
        assert off._per_chain_cache is False

    def test_connection_id_max(self):
        demux = make_algorithm("connection_id:max=17")
        assert demux.max_connections == 17

    def test_multicache_size(self):
        demux = make_algorithm("multicache:k=16")
        assert demux.cache_size == 16
        assert make_algorithm("multicache").cache_size == 8

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_algorithm("bsd:h=19")
        with pytest.raises(ValueError, match="unknown parameter"):
            make_algorithm("sequent:chains=19")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            make_algorithm("sequent:h")

    def test_unknown_hash_rejected(self):
        with pytest.raises(KeyError, match="known:"):
            make_algorithm("sequent:hash=sha512")

    def test_fresh_instance_per_call(self):
        a, b = make_algorithm("bsd"), make_algorithm("bsd")
        assert a is not b
        for pcb in make_pcbs(2):
            a.insert(pcb)
        assert len(b) == 0


class TestRejectionMessages:
    """Unknown options must name both the offender and the accepted set."""

    def test_error_names_the_bad_option(self):
        with pytest.raises(ValueError, match="chains"):
            make_algorithm("sequent:chains=19")

    def test_error_lists_accepted_options(self):
        with pytest.raises(ValueError, match="accepts: h, hash, overload"):
            make_algorithm("sequent:chains=19")
        with pytest.raises(ValueError, match="accepts: h, hash, cache"):
            make_algorithm("hashed_mtf:k=5")
        with pytest.raises(ValueError, match="accepts: k"):
            make_algorithm("multicache:size=4")
        with pytest.raises(ValueError, match="accepts: max"):
            make_algorithm("connection_id:cap=10")

    def test_optionless_algorithms_say_none(self):
        with pytest.raises(ValueError, match="accepts: none"):
            make_algorithm("bsd:h=19")

    def test_multiple_bad_options_all_named(self):
        with pytest.raises(ValueError, match="chains, depth"):
            make_algorithm("sequent:chains=19,depth=3")

    def test_fast_spec_errors_name_the_fast_spec(self):
        with pytest.raises(
            ValueError, match="'fast-sequent'.*accepts: h, hash, overload"
        ):
            make_algorithm("fast-sequent:chains=19")

    def test_sharded_spec_errors_name_the_sharded_spec(self):
        with pytest.raises(
            ValueError,
            match="'sharded-fast-sequent': workers;"
            ".*accepts: shards, steer, h, hash, overload",
        ):
            make_algorithm("sharded-fast-sequent:shards=2,workers=2")


class TestFastVariants:
    @pytest.mark.parametrize(
        "name", ["fast-linear", "fast-bsd", "fast-mtf", "fast-sequent",
                 "fast-hashed_mtf"]
    )
    def test_every_fast_name_constructs(self, name):
        algorithm = make_algorithm(name)
        assert algorithm.name == name
        for pcb in make_pcbs(3):
            algorithm.insert(pcb)
        assert len(algorithm) == 3

    def test_fast_names_are_advertised(self):
        names = list(available_algorithms())
        assert "fast-sequent" in names
        assert names == sorted(names)

    def test_fast_accepts_reference_options(self):
        demux = make_algorithm("fast-sequent:h=51,hash=xor_fold,overload=9")
        assert demux.nchains == 51
        assert demux._hash is xor_fold
        assert demux.overload_threshold == 9
        assert make_algorithm("fast-sequent").nchains == 19

    def test_fast_hashed_mtf_cache_flag(self):
        off = make_algorithm("fast-hashed_mtf:h=5,cache=no")
        assert off._per_chain_cache is False

    def test_unknown_fast_name_lists_known(self):
        with pytest.raises(ValueError, match="fast-sequent"):
            make_algorithm("fast-btree")

    def test_fast_has_no_connection_id_twin(self):
        with pytest.raises(ValueError, match="known:"):
            make_algorithm("fast-connection_id")

    def test_sharded_fast_composes(self):
        demux = make_algorithm("sharded-fast-sequent:shards=4,h=5")
        assert demux.nshards == 4
        assert demux.name == "sharded-fast-sequent"
        assert demux.shards[0].nchains == 5
