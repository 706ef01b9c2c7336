// Golden input for the registry analyzer, type-checked AS
// repro/internal/server: the error-code registry with seeded structural
// defects, apiError code sites, and Metric* constants with no
// MetricNames() registry.
package server

const (
	CodeOK      = "all_good"
	CodeRetry   = "retry_later"
	CodeMissing = "missing_code" // want "CodeMissing is not listed in the Codes"
	// CodeDup and CodeCamel carry bad values, which TestErrorCodeRegistry
	// rejects at run time; the analyzer checks structure only.
	CodeDup   = "all_good"
	CodeCamel = "BadCase"
)

func Codes() []string {
	return []string{
		CodeOK,
		CodeRetry,
		CodeDup,
		CodeCamel,
		CodeOK,          // want "CodeOK listed twice in Codes"
		"stray_literal", // want "entry is not a Code"
	}
}

const (
	MetricMutations   = "mutations" // want "package declares Metric\\* constants but no MetricNames\\(\\) registry function"
	MetricCompactions = "compactions"
)

type apiError struct {
	status  int
	code    string
	message string
}

func good() *apiError {
	return &apiError{status: 400, code: CodeOK, message: "fine"}
}

func goodPositional() apiError {
	return apiError{400, CodeRetry, "fine"}
}

func badLiteral() *apiError {
	return &apiError{status: 400, code: "ad_hoc"} // want "apiError code must be a registered Code. constant"
}

func badPositional() apiError {
	return apiError{400, "nope", "m"} // want "apiError code must be a registered Code. constant"
}

func missingCode() *apiError {
	return &apiError{status: 500} // want "apiError literal without a code"
}

func emptyLiteral() apiError {
	return apiError{} // want "apiError literal without a code"
}

func lateAssign(e *apiError) {
	e.code = "late" // want "assignment to apiError.code must use a registered Code. constant"
}

func goodAssign(e *apiError) {
	e.code = CodeRetry
}

// Forwarding an existing error's code is fine: the value was checked
// where the source error was built.
func copyCode(dst, src *apiError) {
	dst.code = src.code
}

func cloneWith(src *apiError) *apiError {
	return &apiError{status: src.status, code: src.code, message: src.message}
}
