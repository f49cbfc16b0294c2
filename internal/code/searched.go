package code

// Generator matrices discovered by the self-dual hill-climbing search of
// cmd/codesearch (SearchSelfDualClimb); TestSearchedRowsReproduce reruns
// each recorded command. Distances are certified exactly by catalog_test.go.
//
// These stand in for the Grassl-wsd-table [[11,1,3]] and [[16,2,4]] codes,
// whose exact generators the paper does not print. Like the originals they
// are weakly self-dual CSS codes (Hx = Hz).

// css11Rows: weakly self-dual [[11,1,3]]; Hx = Hz, no stabilizer-span
// element lighter than 4 (so no decoupled qubit pairs).
// Found by: codesearch -n 11 -k 1 -d 3 -selfdual -climb -minstab 3 -seed 9.
var css11Rows = []string{
	"10001011101",
	"01001011110",
	"00100001011",
	"00011000011",
	"00000100111",
}

// css16Rows: weakly self-dual [[16,2,4]]; Hx = Hz.
// Found by: codesearch -n 16 -k 2 -d 4 -selfdual -climb -seed 2.
var css16Rows = []string{
	"1000000001111100",
	"0100000110110001",
	"0010000100001111",
	"0001000100100100",
	"0000100011010000",
	"0000010001110110",
	"0000001010111111",
}
